"""Exact discrete joint distributions: dense tables and tree-factored models.

The dense representation is the ground-truth oracle for everything else in
this package: projections, divergences, and the identities the estimators are
checked against all reduce to exact arithmetic on it.  All information
quantities are in nats.

Dense tables use mixed-radix indexing with variable 0 as the most significant
digit: the flat index of an assignment (x_0, ..., x_{n-1}) over an alphabet
of size k is sum_i x_i * k**(n - 1 - i).
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .info import _check_distribution, _pairwise_mi, _row_spans, entropy, mutual_information

DENSE_CAP = 2**24  # largest dense table the oracle will materialize

__all__ = [
    "DENSE_CAP",
    "Alphabet",
    "DenseJoint",
    "UndirectedTree",
    "RootedTree",
    "TreeModel",
    "ProjectionReport",
    "KLDecomposition",
    "DistanceReport",
    "root_at",
    "validate_tree_model",
    "node_marginals",
    "to_dense",
    "sample",
    "sample_dense",
    "pair_marginal",
    "exact_mi_matrix",
    "project_onto_tree",
    "kl_divergence",
    "kl_to_tree_projection",
    "kl_decomposition",
    "statistical_distances",
    "random_spanning_tree",
    "random_tree_model",
    "undirected_tree_to_json",
    "undirected_tree_from_json",
    "tree_model_to_json",
    "tree_model_from_json",
]


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Alphabet:
    """Symbol set {0, ..., size - 1} shared by every variable of a model."""

    size: int

    def __post_init__(self):
        size = _index(self.size, "alphabet size")
        if size < 2:
            raise ValueError(f"alphabet size must be an int >= 2, got {size!r}")
        object.__setattr__(self, "size", size)


def _index(value, what: str) -> int:
    """value as an int; a ValueError naming it unless it is an integer, so a
    fractional index is never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _variables(variables, n: int) -> tuple:
    """The variables as a tuple of ints; a ValueError unless they are distinct
    integers and each lies in range(n)."""
    vs = tuple(_index(v, "variable") for v in variables)
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variables in {vs}")
    for v in vs:
        if not 0 <= v < n:
            raise ValueError(f"variable {v} out of range for n={n}")
    return vs


def _dense_size(k: int, n: int) -> int:
    """k**n, the entry count of a dense table; a ValueError above DENSE_CAP."""
    if n >= DENSE_CAP.bit_length():  # k >= 2, so k**n > DENSE_CAP: skip the power
        raise ValueError(f"dense table of {k}**{n} entries exceeds cap {DENSE_CAP}")
    size = k**n
    if size > DENSE_CAP:
        raise ValueError(f"dense table of {size} entries exceeds cap {DENSE_CAP}")
    return size


@dataclass(frozen=True)
class DenseJoint:
    """Full probability table over alphabet**n assignments."""

    n: int
    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n, "variable count"))
        if self.n < 1:
            raise ValueError("need at least one variable")
        size = _dense_size(self.alphabet.size, self.n)
        arr = np.array(self.probs, dtype=np.float64).reshape(-1)
        if arr.shape[0] != size:
            raise ValueError(f"expected {size} entries, got {arr.shape[0]}")
        _check_distribution(arr, "probability table", 1e-9)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def k(self) -> int:
        return self.alphabet.size

    def table(self) -> np.ndarray:
        """Read-only view shaped (k,) * n."""
        return self.probs.reshape((self.k,) * self.n)

    def marginal(self, variables) -> np.ndarray:
        """Marginal table over the given variables, axes in the given order."""
        vs = _variables(variables, self.n)
        drop = tuple(i for i in range(self.n) if i not in vs)
        ascending = sorted(vs)
        perm = tuple(ascending.index(v) for v in vs)
        return np.transpose(self.table().sum(axis=drop), perm)


@dataclass(frozen=True)
class UndirectedTree:
    """Spanning tree on nodes 0..n-1; edges stored as (u, v) with u < v,
    sorted lexicographically."""

    n: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n, "variable count"))
        if self.n < 1:
            raise ValueError("need at least one node")
        norm = []
        for e in self.edges:
            u, v = _index(e[0], "edge node"), _index(e[1], "edge node")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            norm.append((min(u, v), max(u, v)))
        norm.sort()
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edge")
        if len(norm) != self.n - 1:
            raise ValueError(f"a spanning tree on {self.n} nodes has {self.n - 1} edges, got {len(norm)}")
        object.__setattr__(self, "edges", tuple(norm))
        if -2 in _bfs(self.adjacency(), 0)[1]:
            raise ValueError("edges do not connect all nodes")

    def adjacency(self) -> list:
        out = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        for row in out:
            row.sort()
        return out


def _bfs(adjacency, root: int) -> tuple:
    """Breadth-first walk from root: (the reached nodes in visiting order, each
    node's parent in the walk, -1 at the root and -2 where never reached)."""
    parent = [-2] * len(adjacency)
    parent[root] = -1
    order = [root]
    for x in order:  # grows as the walk reaches new nodes
        for y in adjacency[x]:
            if parent[y] == -2:
                parent[y] = x
                order.append(y)
    return order, tuple(parent)


@dataclass(frozen=True)
class RootedTree:
    """Rooted orientation of a spanning tree: parent[i] is i's parent, -1 at
    the root.  Cyclic or disconnected parent maps are rejected here, so a
    constructed instance is always a valid rooted tree."""

    n: int
    root: int
    parent: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n, "variable count"))
        if self.n < 1:
            raise ValueError("need at least one node")
        object.__setattr__(self, "root", _variables((self.root,), self.n)[0])
        parent = tuple(_index(p, "parent") for p in self.parent)
        if len(parent) != self.n:
            raise ValueError(f"parent map has length {len(parent)}, expected {self.n}")
        if parent[self.root] != -1:
            raise ValueError("parent of the root must be -1")
        for i, p in enumerate(parent):
            if i == self.root:
                continue
            if not 0 <= p < self.n:
                raise ValueError(f"parent of node {i} out of range: {p}")
            if p == i:
                raise ValueError(f"cycle: node {i} is its own parent")
        object.__setattr__(self, "parent", parent)
        # A node is unreachable from the root exactly when its parent chain
        # runs into a cycle.
        reached = set(self.topological_order())
        if len(reached) < self.n:
            node = next(i for i in range(self.n) if i not in reached)
            raise ValueError(f"cycle in parent map involving node {node}")

    def children(self) -> list:
        out = [[] for _ in range(self.n)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p].append(i)
        return out

    def topological_order(self) -> list:
        """Root first; every node appears after its parent."""
        return _bfs(self.children(), self.root)[0]

    def skeleton(self) -> UndirectedTree:
        edges = [(min(i, p), max(i, p)) for i, p in enumerate(self.parent) if p >= 0]
        return UndirectedTree(self.n, tuple(edges))

    def path(self, u: int, v: int) -> list:
        """Nodes along the unique path from u to v, inclusive."""
        _variables({u, v}, self.n)
        up = [u]
        x = u
        while self.parent[x] != -1:
            x = self.parent[x]
            up.append(x)
        depth = {node: i for i, node in enumerate(up)}
        down = [v]
        y = v
        while y not in depth:
            y = self.parent[y]
            down.append(y)
        return up[: depth[y]] + down[::-1]


@dataclass(frozen=True)
class TreeModel:
    """Tree-factored distribution: a root marginal plus, for every non-root
    node, a k x k conditional table whose row r is the node's distribution
    given parent symbol r."""

    tree: RootedTree
    alphabet: Alphabet
    root_marginal: np.ndarray
    cpt: dict

    def __post_init__(self):
        k = self.alphabet.size
        rm = _frozen(self.root_marginal)
        if rm.shape != (k,):
            raise ValueError(f"root marginal must have shape ({k},), got {rm.shape}")
        object.__setattr__(self, "root_marginal", rm)
        non_roots = {i for i in range(self.tree.n) if i != self.tree.root}
        if set(self.cpt) != non_roots:
            raise ValueError("cpt must have exactly one table per non-root node")
        tables = {}
        for node, rows in self.cpt.items():
            arr = _frozen(rows)
            if arr.shape != (k, k):
                raise ValueError(f"cpt of node {node} must be {k} x {k}, got {arr.shape}")
            tables[int(node)] = arr
        object.__setattr__(self, "cpt", tables)

    @property
    def k(self) -> int:
        return self.alphabet.size

    @property
    def n(self) -> int:
        return self.tree.n


def root_at(t: UndirectedTree, root: int) -> RootedTree:
    """Orient an undirected tree away from the given root."""
    root = _variables((root,), t.n)[0]
    return RootedTree(t.n, root, _bfs(t.adjacency(), root)[1])


def validate_tree_model(m: TreeModel) -> None:
    """Raise ValueError naming the first violated numeric invariant.

    Structural problems (cyclic parent maps, missing cpt entries) are already
    rejected when the RootedTree / TreeModel is constructed; this checks the
    probability content: no negative or NaN entries, and the root marginal and
    every conditional row summing to 1 within 1e-12.
    """
    _check_distribution(m.root_marginal, "root marginal", 1e-12)
    for node in sorted(m.cpt):
        _check_distribution(m.cpt[node], f"cpt of node {node}", 1e-12)


def node_marginals(m: TreeModel) -> np.ndarray:
    """Exact marginal of every node, shape (n, k), by root-to-leaf propagation."""
    out = np.zeros((m.n, m.k))
    out[m.tree.root] = m.root_marginal
    for node in m.tree.topological_order()[1:]:
        out[node] = out[m.tree.parent[node]] @ m.cpt[node]
    return out


def to_dense(m: TreeModel) -> DenseJoint:
    """Materialize the full joint table of a tree model."""
    k, n = m.k, m.n
    _dense_size(k, n)
    shape = [1] * n
    shape[m.tree.root] = k
    joint = np.ones((k,) * n) * m.root_marginal.reshape(shape)
    for node in m.tree.topological_order()[1:]:
        pa = m.tree.parent[node]
        factor = m.cpt[node] if pa < node else m.cpt[node].T
        lo, hi = min(pa, node), max(pa, node)
        shape = [1] * n
        shape[lo] = k
        shape[hi] = k
        joint = joint * factor.reshape(shape)
    return DenseJoint(n, m.alphabet, joint.reshape(-1))


def _conditional_rows(joint: np.ndarray) -> np.ndarray:
    """Rows of P(second | first) from a pair table or a stack of them, the
    conditioning variable on the second-to-last axis: C-contiguous rows,
    uniform where that symbol has no mass.  Rows are summed in C order, so
    their bits do not depend on the layout."""
    joint = np.ascontiguousarray(joint)
    mass = joint.sum(axis=-1, keepdims=True)
    zero = mass <= 0.0
    return np.divide(joint, mass, out=np.full(joint.shape, 1.0 / joint.shape[-1]), where=~zero)


def _inverse_cdf(probs, u: np.ndarray, given=None) -> np.ndarray:
    """Inverse-CDF draws: for each uniform in u, the first index whose running
    total reaches it, capped at the last index.  `probs` is one distribution,
    or a table of rows of which draw i uses row given[i].  A running total of
    nonnegative entries never falls, so a draw counts the columns before the
    last whose total is below it: the last column could only lift the count
    to the cap."""
    cum = np.cumsum(probs, axis=-1)
    if given is None:
        idx = np.searchsorted(cum, u, side="left")
    else:
        idx = np.zeros(len(u), dtype=np.intp)
        for j in range(cum.shape[-1] - 1):
            idx += cum[:, j][given] < u
    return np.minimum(idx, cum.shape[-1] - 1)


# Uniforms per Generator.random call of a long draw.  Consecutive calls give
# the same stream as one call for all of them, so the chunk sets only the
# memory of the draw: about 33 bytes a uniform, 0.5 MiB in all, for the
# uniforms, the draws, and in `sample` the running totals gathered and the
# parent symbols as intp (numpy gathers by an intp index about 4 times as
# fast as by a strided uint8 column), or in `sample_dense` the flat index and
# its remainders.  On a 2-core x86 VM `sample` of 200,000 rows of 16 binary
# nodes took 25 ms at this size, 26 ms at 2^16 and 31 ms at 2^12.
_DRAW_CHUNK = 1 << 14


def sample(m: TreeModel, count: int, seed: int):
    """Ancestral sampling: the root is drawn first, then each node in
    topological order given its parent's symbol.  The same (model, count,
    seed) always produces the identical sample set.
    """
    from .estimation import SampleSet  # estimation builds on model types

    if count < 0:
        raise ValueError("count must be >= 0")
    rows = np.zeros((count, m.n), dtype=np.uint8)
    rng = np.random.default_rng(seed)
    for node in m.tree.topological_order():
        for start in range(0, count, _DRAW_CHUNK):
            chunk = rows[start:start + _DRAW_CHUNK]
            u = rng.random(len(chunk))
            if node == m.tree.root:
                chunk[:, node] = _inverse_cdf(m.root_marginal, u)
            else:
                chunk[:, node] = _inverse_cdf(m.cpt[node], u, chunk[:, m.tree.parent[node]].astype(np.intp))
    return SampleSet(m.alphabet, rows)


def sample_dense(p: DenseJoint, count: int, seed: int):
    """Draw iid assignments from a dense joint by inverse-CDF on the flat
    table, _DRAW_CHUNK draws of the one uniform stream at a time."""
    from .estimation import SampleSet

    if count < 0:
        raise ValueError("count must be >= 0")
    if p.k > 256:
        raise ValueError("sample sets store one byte per symbol; alphabet too large")
    rows = np.empty((count, p.n), dtype=np.uint8)
    rng = np.random.default_rng(seed)
    for start in range(0, count, _DRAW_CHUNK):
        chunk = rows[start:start + _DRAW_CHUNK]
        rem = _inverse_cdf(p.probs, rng.random(len(chunk))).astype(np.int64, copy=False)
        for j in range(p.n - 1, -1, -1):
            chunk[:, j] = rem % p.k
            rem //= p.k
    return SampleSet(p.alphabet, rows)


def _subtree_intervals(tree: RootedTree) -> tuple:
    """Euler-tour intervals of a preorder walk as int arrays (tin, tout): y
    lies in x's subtree exactly when tin[x] <= tin[y] < tout[x]."""
    children = tree.children()
    order = _bfs(children, tree.root)[0]
    size = [1] * tree.n
    for x in reversed(order[1:]):
        size[tree.parent[x]] += size[x]
    tin = [0] * tree.n
    for x in order:
        at = tin[x] + 1
        for c in children[x]:
            tin[c] = at
            at += size[c]
    tin = np.array(tin)
    return tin, tin + np.array(size)


def _pair_arrays(sources, nodes, n: int) -> tuple:
    """The pairs (sources[t], nodes[t]) as two intp arrays; a ValueError worded
    by _variables for the first pair that is not two distinct variables."""
    us, vs = np.asarray(sources), np.asarray(nodes)
    if us.ndim == vs.ndim == 1 and us.dtype.kind in "iu" and vs.dtype.kind in "iu":
        bad = (us < 0) | (us >= n) | (vs < 0) | (vs >= n) | (us == vs)
        if not bad.any():
            return us.astype(np.intp), vs.astype(np.intp)
        first = int(np.argmax(bad))
        sources, nodes = [sources[first]], [nodes[first]]
    pairs = [_variables(pair, n) for pair in zip(sources, nodes)]
    return np.array([u for u, _ in pairs], dtype=np.intp), np.array([v for _, v in pairs], dtype=np.intp)


def pair_marginal(m: TreeModel, u, v) -> np.ndarray:
    """Exact joint table of (X_u, X_v) by transition composition, without
    materializing the full joint.

    Takes two nodes and returns a k x k table, or two sequences of one length
    and returns the (len(u), k, k) stack of the tables of (u[t], v[t]).

    All pairs walk from their sources at once, one distance at a time, each
    by the next-hop rule: to the child towards its node when the Euler-tour
    intervals put the node below the current one, else to the parent.  Pairs
    at the same (source, node) share its transition, the stacked matmul of
    the transition there one distance back times the step, starting from the
    identity.  That is the left-to-right product along the tree path, so each
    table is bit-identical to the call on its pair alone.  The walk runs on
    integers first, so the upward steps it crosses are inverted in one pass,
    once per call.  Only nodes on the way to a wanted node are walked to, so
    the transitions held at two distances are at most twice the output, which
    exact_mi_matrix bounds by its stack-budget spans."""
    single = np.ndim(u) == 0
    if single != (np.ndim(v) == 0):
        raise ValueError("give two nodes or two sequences of nodes")
    sources, nodes = ([u], [v]) if single else (u, v)
    if len(sources) != len(nodes):
        raise ValueError(f"sources and nodes differ in length: {len(sources)} and {len(nodes)}")
    n, k = m.n, m.k
    src, target = _pair_arrays(sources, nodes, n)
    out = np.empty((len(src), k, k))
    parent = np.array(m.tree.parent)
    tin, tout = _subtree_intervals(m.tree)
    # Non-root nodes sorted by (parent, tin): the child of x towards a node y
    # below x is the last child of x whose tin is at most tin[y].
    child_key = parent * n + tin
    by_key = np.argsort(child_key)[1:]  # the root's key, -n + tin[root], sorts first
    child_key = child_key[by_key]
    # Sorted by source, then by the target's preorder place counted on from
    # the source's, the pairs at one (source, node) are adjacent at every
    # distance: the nodes behind a step, down into a subtree or up out of one
    # that holds the source, form one run of that cyclic order.
    at = np.lexsort(((tin[target] - tin[src]) % n, src))
    src, target = src[at], target[at]
    fresh = np.ones(len(src), dtype=bool)
    fresh[1:] = src[1:] != src[:-1]
    slot = np.cumsum(fresh) - 1  # the pair's transition, here the identity of its source
    held = np.broadcast_to(np.eye(k), (int(fresh.sum()), k, k))
    here, target_tin = src, tin[target]
    levels = []  # per distance: the new transitions' slots one distance back and steps, the pairs ending
    while len(at):
        below = (tin[here] < target_tin) & (target_tin < tout[here])
        step_to = parent[here]
        if below.any():
            step_to[below] = by_key[np.searchsorted(child_key, here[below] * n + target_tin[below], side="right") - 1]
        fresh[0] = True
        fresh[1:len(at)] = (step_to[1:] != step_to[:-1]) | (src[1:] != src[:-1])
        first = np.flatnonzero(fresh[:len(at)])
        shared = np.cumsum(fresh[:len(at)]) - 1
        done = step_to == target
        levels.append((slot[first], here[first], step_to[first], below[first], at[done], shared[done], src[done]))
        walking = ~done
        at, src, target, target_tin = at[walking], src[walking], target[walking], target_tin[walking]
        here, slot = step_to[walking], shared[walking]
    marginals = node_marginals(m)
    up = {}  # P(X_parent | X_child) by child
    crossed = sorted({x for _, xs, _, down, *_ in levels for x in xs[~down].tolist()})
    if crossed:
        # Zero-mass child symbols never occur; a uniform row keeps the matrix stochastic.
        joint = marginals[parent[crossed]][:, :, None] * np.array([m.cpt[x] for x in crossed])
        up = dict(zip(crossed, _conditional_rows(joint.transpose(0, 2, 1))))
    for back, xs, ys, down, ended, slots, ended_src in levels:
        steps = [m.cpt[y] if d else up[x] for x, y, d in zip(xs.tolist(), ys.tolist(), down.tolist())]
        held = np.matmul(held[back], np.array(steps))
        if len(ended):
            tables = held[slots]
            tables *= marginals[ended_src][:, :, None]
            out[ended] = tables
    return out[0] if single else out


def exact_mi_matrix(m: TreeModel) -> np.ndarray:
    """Pairwise mutual information of all variable pairs under the model: the
    pairs u < v in row order, cut into stack-budget spans (the one place the
    budget bounds the oracle), one pair_marginal call per span."""
    us, vs = np.triu_indices(m.n, 1)
    spans = (slice(span.start, span.stop) for span in _row_spans(0, len(us), m.k))
    return _pairwise_mi(m.n, ((us[at], vs[at], pair_marginal(m, us[at], vs[at])) for at in spans))


def project_onto_tree(p: DenseJoint, t: UndirectedTree, root: int) -> TreeModel:
    """Closest tree-factored distribution with skeleton t: the one whose root
    marginal and edge conditionals are read off p itself.  Parent symbols
    with zero probability get uniform rows.
    """
    if p.n != t.n:
        raise ValueError(f"joint has {p.n} variables but tree has {t.n} nodes")
    tree = root_at(t, root)
    cpt = {node: _conditional_rows(p.marginal((tree.parent[node], node)))
           for node in range(p.n) if node != root}
    return TreeModel(tree, p.alphabet, p.marginal((root,)), cpt)


def _kl_arrays(p, q) -> float:
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    mask = p > 0
    if np.any(q[mask] == 0.0):
        return math.inf
    pm = p[mask]
    return float(np.sum(pm * np.log(pm / q[mask])))


def _total_correlation(p: DenseJoint) -> float:
    return sum(entropy(p.marginal((v,))) for v in range(p.n)) - entropy(p.probs)


def kl_divergence(p: DenseJoint, q: DenseJoint) -> float:
    """KL divergence D(p || q) in nats; +inf when q misses mass p carries."""
    if p.n != q.n or p.k != q.k:
        raise ValueError("distributions live on different spaces")
    return _kl_arrays(p.probs, q.probs)


@dataclass(frozen=True)
class ProjectionReport:
    """KL from p to its projection onto a tree, split into the tree-free part
    (total correlation) minus the tree weight."""

    total_correlation: float
    tree_weight: float
    kl: float


def kl_to_tree_projection(p: DenseJoint, t: UndirectedTree) -> ProjectionReport:
    """D(p || projection of p onto t) = total_correlation(p) - weight_p(t),
    where the weight is the sum of pairwise MI over the tree's edges."""
    if p.n != t.n:
        raise ValueError(f"joint has {p.n} variables but tree has {t.n} nodes")
    total_corr = _total_correlation(p)
    weight = sum(mutual_information(p.marginal(e)) for e in t.edges)
    return ProjectionReport(total_correlation=total_corr, tree_weight=weight, kl=total_corr - weight)


@dataclass(frozen=True)
class KLDecomposition:
    """D(p || m) split as base_term - weight_term + conditional_term, where
    base_term is the total correlation of p, weight_term is p's MI summed over
    m's edges, and conditional_term is the parent-averaged KL between the
    conditional rows of p and of m (zero exactly when m is p's projection)."""

    base_term: float
    weight_term: float
    conditional_term: float
    total: float


def kl_decomposition(p: DenseJoint, m: TreeModel) -> KLDecomposition:
    if p.n != m.n or p.k != m.k:
        raise ValueError("distributions live on different spaces")
    base = _total_correlation(p)
    weight = 0.0
    conditional = _kl_arrays(p.marginal((m.tree.root,)), m.root_marginal)
    for node in range(p.n):
        if node == m.tree.root:
            continue
        pa = m.tree.parent[node]
        pm = p.marginal((pa, node))
        weight += mutual_information(pm)
        pa_marginal = pm.sum(axis=1)
        for a in range(p.k):
            if pa_marginal[a] > 0.0:  # an infinite term makes the sum infinite
                conditional += float(pa_marginal[a]) * _kl_arrays(pm[a] / pa_marginal[a], m.cpt[node][a])
    return KLDecomposition(
        base_term=base,
        weight_term=weight,
        conditional_term=conditional,
        total=base - weight + conditional,
    )


@dataclass(frozen=True)
class DistanceReport:
    tv: float
    hellinger_sq: float


def statistical_distances(p: DenseJoint, q: DenseJoint) -> DistanceReport:
    """Total variation and squared Hellinger distance between dense joints."""
    if p.n != q.n or p.k != q.k:
        raise ValueError("distributions live on different spaces")
    tv = 0.5 * float(np.abs(p.probs - q.probs).sum())
    hell = 0.5 * float(((np.sqrt(p.probs) - np.sqrt(q.probs)) ** 2).sum())
    clamp = lambda x: min(max(x, 0.0), 1.0)
    return DistanceReport(tv=clamp(tv), hellinger_sq=clamp(hell))


def random_spanning_tree(n: int, rng: np.random.Generator) -> UndirectedTree:
    """Uniform random labeled tree, built by decoding a random Pruefer sequence."""
    if n == 1:
        return UndirectedTree(1, ())
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for s in seq:
        degree[s] += 1
    edges = []
    leaves = sorted(i for i in range(n) if degree[i] == 1)
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, int(s)), max(leaf, int(s))))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, int(s))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return UndirectedTree(n, tuple(edges))


def random_tree_model(n: int, k: int, seed: int, cpt_floor: float = 0.05) -> TreeModel:
    """Random ground-truth model: a uniform random tree rooted at node 0 with
    Dirichlet(1) rows rescaled so every probability is at least `cpt_floor`.
    The floor keeps all conditionals bounded away from zero, which the
    recovery experiments rely on."""
    if not 0.0 <= cpt_floor * k < 1.0:
        raise ValueError(f"cpt floor {cpt_floor} infeasible for alphabet size {k}")
    rng = np.random.default_rng(seed)
    tree = root_at(random_spanning_tree(n, rng), 0)
    # One draw of all rows gives the stream and bytes of one draw per row:
    # the root marginal, then node 1's k rows, node 2's, and so on.
    rows = cpt_floor + (1.0 - k * cpt_floor) * rng.dirichlet(np.ones(k), size=1 + (n - 1) * k)
    cpt = {node: rows[1 + (node - 1) * k:1 + node * k] for node in range(1, n)}
    return TreeModel(tree, Alphabet(k), rows[0], cpt)


# -- JSON serialization -------------------------------------------------------
#
# Floats go through json.dumps, which emits repr() output, so every value
# round-trips exactly (shortest-repr is stronger than 17 significant digits).


def _json_document(text: str, what: str, fields: dict) -> list:
    """_json_fields of the JSON document `text`; nesting too deep for the
    parser is a ValueError naming `what`."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to parse") from None
    return _json_fields(doc, what, fields)


def _json_fields(doc, what: str, fields: dict) -> list:
    """The converted values of `fields` in doc, in the order of `fields`, which
    maps each key to its converter, or to (converter, default) when the key is
    optional.  A doc that is not a JSON object, a key not in `fields`, a missing
    key and a value of the wrong type or form raise a ValueError naming `what` and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in doc:
        if key not in fields:
            raise ValueError(f"{what} has unknown key {key!r}")
    values = []
    for key, convert in fields.items():
        default = None
        if isinstance(convert, tuple):
            convert, default = convert
        elif key not in doc:
            raise ValueError(f"{what} is missing key {key!r}")
        try:
            values.append(convert(doc[key]) if key in doc else default)
        except (TypeError, ValueError, AttributeError, OverflowError) as err:
            raise ValueError(f"{what} has a bad value for key {key!r}: {err}") from None
    return values


def _int(value) -> int:
    """A JSON integer or an integral number such as 1e12; not a boolean, a string or a fraction."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite JSON number; not a boolean, a string, NaN or an infinity."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _float_array(value) -> np.ndarray:
    """A float64 array of nested lists of numbers, with no boolean or string at any depth."""
    arr = np.array(value, dtype=np.float64)
    for item in np.array(value, dtype=object).flat:
        _float(item)
    return arr


def undirected_tree_to_json(t: UndirectedTree) -> str:
    doc = {"n": t.n, "edges": [[u, v] for u, v in t.edges]}
    return json.dumps(doc)


def undirected_tree_from_json(text: str) -> UndirectedTree:
    n, edges = _json_document(
        text, "tree", {"n": _int, "edges": lambda edges: tuple((_int(u), _int(v)) for u, v in edges)}
    )
    return UndirectedTree(n, edges)


def tree_model_to_json(m: TreeModel) -> str:
    doc = {
        "n": m.n,
        "k": m.k,
        "root": m.tree.root,
        "parents": list(m.tree.parent),
        "root_marginal": [float(x) for x in m.root_marginal],
        "cpt": {str(node): [[float(x) for x in row] for row in m.cpt[node]] for node in sorted(m.cpt)},
    }
    return json.dumps(doc)


def tree_model_from_json(text: str) -> TreeModel:
    n, k, root, parents, root_marginal, cpt = _json_document(text, "model", {
        "n": _int,
        "k": _int,
        "root": _int,
        "parents": lambda parents: tuple(_int(p) for p in parents),
        "root_marginal": _float_array,
        "cpt": lambda cpt: {int(node): _float_array(rows) for node, rows in cpt.items()},
    })
    m = TreeModel(RootedTree(n, root, parents), Alphabet(k), root_marginal, cpt)
    validate_tree_model(m)
    return m
