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
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .info import _pairwise_mi, entropy, mutual_information

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
    "reroot",
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
    "dense_joint_to_json",
    "dense_joint_from_json",
    "undirected_tree_to_json",
    "undirected_tree_from_json",
    "tree_model_to_json",
    "tree_model_from_json",
]


def _frozen(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Alphabet:
    """Symbol set {0, ..., size - 1} shared by every variable of a model."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 2:
            raise ValueError(f"alphabet size must be an int >= 2, got {self.size!r}")


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
        if self.n < 1:
            raise ValueError("need at least one variable")
        size = _dense_size(self.alphabet.size, self.n)
        arr = np.array(self.probs, dtype=np.float64).reshape(-1)
        if arr.shape[0] != size:
            raise ValueError(f"expected {size} entries, got {arr.shape[0]}")
        if np.any(arr < 0):
            raise ValueError("negative entry in probability table")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
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
        vs = tuple(int(v) for v in variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variables in {vs}")
        for v in vs:
            if not 0 <= v < self.n:
                raise ValueError(f"variable {v} out of range for n={self.n}")
        keep = set(vs)
        drop = tuple(i for i in range(self.n) if i not in keep)
        t = self.table().sum(axis=drop) if drop else np.array(self.table())
        ascending = sorted(keep)
        perm = tuple(ascending.index(v) for v in vs)
        return np.transpose(t, perm) if perm != tuple(range(len(vs))) else t


@dataclass(frozen=True)
class UndirectedTree:
    """Spanning tree on nodes 0..n-1; edges stored as (u, v) with u < v,
    sorted lexicographically."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one node")
        norm = []
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
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
        if self.n < 1:
            raise ValueError("need at least one node")
        if not 0 <= self.root < self.n:
            raise ValueError(f"root {self.root} out of range")
        parent = tuple(int(p) for p in self.parent)
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
        for x in (u, v):
            if not 0 <= x < self.n:
                raise ValueError(f"node {x} out of range")
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
    given parent symbol r.

    `uniform_rows` records (node, parent_symbol) pairs where a zero-probability
    conditioning event forced a uniform row during projection or rerooting.
    """

    tree: RootedTree
    alphabet: Alphabet
    root_marginal: np.ndarray
    cpt: dict
    uniform_rows: tuple = ()

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
        object.__setattr__(self, "uniform_rows", tuple(self.uniform_rows))

    @property
    def k(self) -> int:
        return self.alphabet.size

    @property
    def n(self) -> int:
        return self.tree.n


def root_at(t: UndirectedTree, root: int) -> RootedTree:
    """Orient an undirected tree away from the given root."""
    if not 0 <= root < t.n:
        raise ValueError(f"root {root} out of range")
    return RootedTree(t.n, root, _bfs(t.adjacency(), root)[1])


def validate_tree_model(m: TreeModel, tol: float = 1e-12) -> None:
    """Raise ValueError naming the first violated numeric invariant.

    Structural problems (cyclic parent maps, missing cpt entries) are already
    rejected when the RootedTree / TreeModel is constructed; this checks the
    probability content: no negative entries, root marginal summing to 1, and
    every conditional row summing to 1, all within `tol`.
    """
    rm = m.root_marginal
    if np.any(rm < 0):
        raise ValueError("negative entry in root marginal")
    total = float(rm.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"root marginal row sum != 1: {total!r}")
    for node in sorted(m.cpt):
        rows = m.cpt[node]
        if np.any(rows < 0):
            raise ValueError(f"negative entry in cpt of node {node}")
        sums = rows.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > tol)[0]
        if bad.size:
            b = int(bad[0])
            raise ValueError(
                f"cpt row sum != 1 at node {node}, parent symbol {b}: {float(sums[b])!r}"
            )


def node_marginals(m: TreeModel) -> np.ndarray:
    """Exact marginal of every node, shape (n, k), by root-to-leaf propagation."""
    out = np.zeros((m.n, m.k))
    out[m.tree.root] = m.root_marginal
    for node in m.tree.topological_order():
        if node == m.tree.root:
            continue
        out[node] = out[m.tree.parent[node]] @ m.cpt[node]
    return out


def to_dense(m: TreeModel) -> DenseJoint:
    """Materialize the full joint table of a tree model."""
    k, n = m.k, m.n
    _dense_size(k, n)
    shape = [1] * n
    shape[m.tree.root] = k
    joint = np.ones((k,) * n) * m.root_marginal.reshape(shape)
    for node in m.tree.topological_order():
        if node == m.tree.root:
            continue
        pa = m.tree.parent[node]
        factor = m.cpt[node] if pa < node else m.cpt[node].T
        lo, hi = min(pa, node), max(pa, node)
        shape = [1] * n
        shape[lo] = k
        shape[hi] = k
        joint = joint * factor.reshape(shape)
    return DenseJoint(n, m.alphabet, joint.reshape(-1))


def _conditional_rows(joint: np.ndarray) -> tuple:
    """Rows of P(second | first) from a pair table with the conditioning
    variable on axis 0, together with the list of conditioning symbols whose
    mass is zero (those rows are set to uniform)."""
    k = joint.shape[0]
    rows = np.empty((k, k))
    degenerate = []
    for a in range(k):
        mass = float(joint[a].sum())
        if mass <= 0.0:
            rows[a] = 1.0 / k
            degenerate.append(a)
        else:
            rows[a] = joint[a] / mass
    return rows, degenerate


def _step_matrix(m: TreeModel, marginals: np.ndarray, a: int, b: int) -> tuple:
    """Transition P(X_b | X_a) for adjacent nodes a, b, and the a-symbols of
    zero mass whose rows were set to uniform."""
    if m.tree.parent[b] == a:
        return m.cpt[b], []
    # a is the child of b: invert the stored conditional through the joint.
    # Zero-mass a-symbols never occur; a uniform row keeps the matrix stochastic.
    return _conditional_rows((marginals[b][:, None] * m.cpt[a]).T)


def reroot(m: TreeModel, new_root: int) -> TreeModel:
    """Reorient the same distribution at a different root.

    Edge conditionals along the old-root-to-new-root path are recomputed from
    exact pair marginals; the represented joint is unchanged.
    """
    if not 0 <= new_root < m.n:
        raise ValueError(f"node {new_root} out of range")
    if new_root == m.tree.root:
        return m
    marginals = node_marginals(m)
    tree = root_at(m.tree.skeleton(), new_root)
    cpt = {}
    flags = []
    for node in range(m.n):
        if node == new_root:
            continue
        cpt[node], degenerate = _step_matrix(m, marginals, tree.parent[node], node)
        flags.extend((node, b) for b in degenerate)
    return TreeModel(tree, m.alphabet, marginals[new_root], cpt, tuple(flags))


def _inverse_cdf(probs, u: np.ndarray, given=None) -> np.ndarray:
    """Inverse-CDF draws: for each uniform in u, the first index whose running
    total reaches it, capped at the last index.  `probs` is one distribution,
    or a table of rows of which draw i uses row given[i]."""
    cum = np.cumsum(probs, axis=-1)
    if given is None:
        idx = np.searchsorted(cum, u, side="left")
    else:
        idx = (cum[given] < u[:, None]).sum(axis=1)
    return np.minimum(idx, cum.shape[-1] - 1)


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
        u = rng.random(count)
        if node == m.tree.root:
            rows[:, node] = _inverse_cdf(m.root_marginal, u)
        else:
            parent_sym = rows[:, m.tree.parent[node]].astype(np.intp)
            rows[:, node] = _inverse_cdf(m.cpt[node], u, parent_sym)
    return SampleSet(m.alphabet, rows)


def sample_dense(p: DenseJoint, count: int, seed: int):
    """Draw iid assignments from a dense joint by inverse-CDF on the flat table."""
    from .estimation import SampleSet

    if count < 0:
        raise ValueError("count must be >= 0")
    if p.k > 256:
        raise ValueError("sample sets store one byte per symbol; alphabet too large")
    flat = _inverse_cdf(p.probs, np.random.default_rng(seed).random(count))
    rows = np.empty((count, p.n), dtype=np.uint8)
    rem = flat.astype(np.int64)
    for j in range(p.n - 1, -1, -1):
        rows[:, j] = rem % p.k
        rem //= p.k
    return SampleSet(p.alphabet, rows)


def pair_marginal(m: TreeModel, u: int, v: int) -> np.ndarray:
    """Exact joint table of (X_u, X_v) via transition composition along the
    tree path, without materializing the full joint."""
    if u == v:
        raise ValueError("need two distinct variables")
    for x in (u, v):
        if not 0 <= x < m.n:
            raise ValueError(f"node {x} out of range")
    marginals = node_marginals(m)
    path = m.tree.path(u, v)
    trans = np.eye(m.k)
    for a, b in zip(path, path[1:]):
        trans = trans @ _step_matrix(m, marginals, a, b)[0]
    return marginals[u][:, None] * trans


def exact_mi_matrix(m: TreeModel) -> np.ndarray:
    """Pairwise mutual information of all variable pairs under the model."""
    pairs = itertools.combinations(range(m.n), 2)
    return _pairwise_mi(m.n, (((u, v), pair_marginal(m, u, v)) for u, v in pairs))


def project_onto_tree(p: DenseJoint, t: UndirectedTree, root: int) -> TreeModel:
    """Closest tree-factored distribution with skeleton t: the one whose root
    marginal and edge conditionals are read off p itself.

    Parent symbols with zero probability get uniform rows; those are recorded
    in the result's `uniform_rows`.
    """
    if p.n != t.n:
        raise ValueError(f"joint has {p.n} variables but tree has {t.n} nodes")
    tree = root_at(t, root)
    cpt = {}
    flags = []
    for node in range(p.n):
        if node == root:
            continue
        cpt[node], degenerate = _conditional_rows(p.marginal((tree.parent[node], node)))
        flags.extend((node, a) for a in degenerate)
    return TreeModel(tree, p.alphabet, p.marginal((root,)), cpt, tuple(flags))


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
    if n == 2:
        return UndirectedTree(2, ((0, 1),))
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
    scale = 1.0 - k * cpt_floor

    def row():
        return cpt_floor + scale * rng.dirichlet(np.ones(k))

    root_marginal = row()
    cpt = {}
    for node in range(n):
        if node == 0:
            continue
        cpt[node] = np.stack([row() for _ in range(k)])
    return TreeModel(tree, Alphabet(k), root_marginal, cpt)


# -- JSON serialization -------------------------------------------------------
#
# Floats go through json.dumps, which emits repr() output, so every value
# round-trips exactly (shortest-repr is stronger than 17 significant digits).


def dense_joint_to_json(p: DenseJoint, indent=None) -> str:
    doc = {"n": p.n, "k": p.k, "probs": [float(x) for x in p.probs]}
    return json.dumps(doc, indent=indent)


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
        except (TypeError, ValueError, AttributeError) as err:
            raise ValueError(f"{what} has a bad value for key {key!r}: {err}") from None
    return values


def _int(value) -> int:
    """A JSON integer or an integral number such as 1e12; not a boolean, a string or a fraction."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    if isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _float_array(value) -> np.ndarray:
    """A float64 array of nested lists of numbers, with no boolean or string at any depth."""
    arr = np.array(value, dtype=np.float64)
    for item in np.array(value, dtype=object).flat:
        _float(item)
    return arr


def dense_joint_from_json(text: str) -> DenseJoint:
    n, k, probs = _json_fields(json.loads(text), "dense joint", {"n": _int, "k": _int, "probs": _float_array})
    return DenseJoint(n, Alphabet(k), probs)


def undirected_tree_to_json(t: UndirectedTree, indent=None) -> str:
    doc = {"n": t.n, "edges": [[u, v] for u, v in t.edges]}
    return json.dumps(doc, indent=indent)


def undirected_tree_from_json(text: str) -> UndirectedTree:
    n, edges = _json_fields(
        json.loads(text), "tree", {"n": _int, "edges": lambda edges: tuple((_int(u), _int(v)) for u, v in edges)}
    )
    return UndirectedTree(n, edges)


def tree_model_to_json(m: TreeModel, indent=None) -> str:
    doc = {
        "n": m.n,
        "k": m.k,
        "root": m.tree.root,
        "parents": list(m.tree.parent),
        "root_marginal": [float(x) for x in m.root_marginal],
        "cpt": {str(node): [[float(x) for x in row] for row in m.cpt[node]] for node in sorted(m.cpt)},
    }
    return json.dumps(doc, indent=indent)


def tree_model_from_json(text: str) -> TreeModel:
    n, k, root, parents, root_marginal, cpt = _json_fields(json.loads(text), "model", {
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
