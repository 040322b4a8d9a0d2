"""Reference implementations the tests trust instead of the library.

Everything here is deliberately computed by a different route than the
package uses: information quantities by direct per-cell summation, labeled
trees by sequence decoding instead of union-find, hard triples by explicit
enumeration of the hidden coin and per-coordinate copy events.  Agreement
between these and the library is the point of the tests, so nothing in this
file may import from chowliu.
"""

import itertools
import math

import numpy as np


# -- information quantities ---------------------------------------------------

def direct_entropy(probs) -> float:
    total = 0.0
    for p in np.asarray(probs, dtype=float).reshape(-1):
        if p > 0.0:
            total -= p * math.log(p)
    return total


def direct_mi(joint) -> float:
    """Plug-in Sum p(x,y) log(p(x,y) / (p(x) p(y))), zero cells skipped."""
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            p = joint[i, j]
            if p > 0.0:
                total += p * math.log(p / (px[i] * py[j]))
    return total


def direct_cmi(joint) -> float:
    """I(X;Y|Z) on an (x, y, z)-indexed table; empty z-slices contribute 0."""
    joint = np.asarray(joint, dtype=float)
    pz = joint.sum(axis=(0, 1))
    total = 0.0
    for z in range(joint.shape[2]):
        if pz[z] > 0.0:
            total += pz[z] * direct_mi(joint[:, :, z] / pz[z])
    return total


def direct_kl(p, q) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    total = 0.0
    for a, b in zip(p, q):
        if a > 0.0:
            if b <= 0.0:
                return math.inf
            total += a * math.log(a / b)
    return total


def _numpy_entropy(probs) -> float:
    nz = probs.reshape(-1)
    nz = nz[nz > 0]
    return float(-np.sum(nz * np.log(nz)))


def pairwise_plug_in_mi(rows, k: int) -> np.ndarray:
    """Plug-in MI of every column pair by the per-pair loop: one bincount per
    pair i < j, then H(X) + H(Y) - H(X, Y) clamped at zero.  The numpy
    reductions are the package's own, so this agrees with mi_matrix bit for
    bit however the package counts."""
    rows = np.asarray(rows, dtype=np.int64)
    count, n = rows.shape
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            joint = np.bincount(rows[:, i] * k + rows[:, j], minlength=k * k).reshape(k, k) / count
            value = _numpy_entropy(joint.sum(axis=1)) + _numpy_entropy(joint.sum(axis=0)) - _numpy_entropy(joint)
            w[i, j] = w[j, i] = value if value > 0.0 else 0.0
    return w


# -- labeled trees ------------------------------------------------------------

def sequence_tree(seq, n: int) -> list:
    """Decode a length n-2 sequence over [0, n) into labeled tree edges."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((min(u, w), max(u, w)))
    return edges


def all_labeled_trees(n: int) -> list:
    """All n^(n-2) labeled spanning trees on [0, n), as edge lists."""
    if n == 1:
        return [[]]
    if n == 2:
        return [[(0, 1)]]
    return [sequence_tree(seq, n) for seq in itertools.product(range(n), repeat=n - 2)]


def best_tree_weight(w) -> float:
    """Exhaustive maximum of edge-weight sums over all labeled trees."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    return max(sum(w[u, v] for u, v in t) for t in all_labeled_trees(n)) if n > 1 else 0.0


def is_spanning_tree(n: int, edges) -> bool:
    edges = list(edges)
    if len(edges) != n - 1:
        return False
    adjacency = {v: [] for v in range(n)}
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            return False
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == n


# -- hard triples by event enumeration ------------------------------------------

def enumerate_nonrealizable(index: int, epsilon: float) -> np.ndarray:
    """Member `index`: a hidden fair coin, and each coordinate independently
    copies it with its own probability or is replaced by a fresh fair bit.
    Copy probabilities are 3/4 + eps except at the member's weak coordinate
    (2, 1, 0 for members 1, 2, 3), which copies with 3/4 - eps.
    """
    copy = [0.75 + epsilon] * 3
    copy[3 - index] = 0.75 - epsilon
    table = np.zeros((2, 2, 2))
    for hidden in (0, 1):
        for moves in itertools.product(("copy", "fresh0", "fresh1"), repeat=3):
            mass = 0.5
            cell = []
            for j, move in enumerate(moves):
                if move == "copy":
                    mass *= copy[j]
                    cell.append(hidden)
                else:
                    mass *= (1.0 - copy[j]) / 2.0
                    cell.append(0 if move == "fresh0" else 1)
            table[tuple(cell)] += mass
    return table


def enumerate_realizable(index: int, epsilon: float) -> np.ndarray:
    """Member `index`: coordinates other than index-1 share one fair bit;
    coordinate index-1 copies it with probability 1 - eps, else is fresh."""
    observer = index - 1
    others = [j for j in range(3) if j != observer]
    table = np.zeros((2, 2, 2))
    for shared in (0, 1):
        for move, mass in (("copy", 1.0 - epsilon), ("fresh0", epsilon / 2.0), ("fresh1", epsilon / 2.0)):
            cell = [0, 0, 0]
            cell[others[0]] = shared
            cell[others[1]] = shared
            cell[observer] = shared if move == "copy" else (0 if move == "fresh0" else 1)
            table[tuple(cell)] += 0.5 * mass
    return table


# -- misc ----------------------------------------------------------------------

def random_joint_table(n: int, k: int, rng) -> np.ndarray:
    """Dirichlet(1) point on the full k^n simplex, shaped (k,) * n."""
    return rng.dirichlet(np.ones(k**n)).reshape((k,) * n)


# -- sampling -------------------------------------------------------------------
#
# Both samplers draw by inverse CDF: a uniform u in [0, 1) picks the first
# symbol whose running total (added left to right, as np.cumsum does) reaches
# u, or the last symbol when rounding leaves every total below u.

def inverse_cdf_index(probs, u: float) -> int:
    total = 0.0
    for index, p in enumerate(probs):
        total += float(p)
        if total >= u:
            return index
    return len(probs) - 1


def ancestral_sample(parents, root_marginal, cpt, count: int, seed: int) -> list:
    """Rows of `count` ancestral draws.  parents[i] is node i's parent (-1 at
    the root) and cpt[i][a] is node i's distribution given parent symbol a.
    Nodes are drawn breadth-first from the root, children in increasing
    index order, and each node consumes one rng.random(count) block of
    np.random.default_rng(seed)."""
    n = len(parents)
    root = list(parents).index(-1)
    order = [root]
    for x in order:  # grows while iterated: a breadth-first walk
        order.extend(i for i in range(n) if parents[i] == x)
    rng = np.random.default_rng(seed)
    rows = [[0] * n for _ in range(count)]
    for node in order:
        block = rng.random(count)
        for row, u in zip(rows, block):
            probs = root_marginal if node == root else cpt[node][row[parents[node]]]
            row[node] = inverse_cdf_index(probs, float(u))
    return rows


def flat_table_sample(probs, n: int, k: int, count: int, seed: int) -> list:
    """Rows of `count` draws from a flat table over k**n assignments, variable
    0 the most significant digit, using one rng.random(count) block."""
    rows = []
    for u in np.random.default_rng(seed).random(count):
        flat = inverse_cdf_index(probs, float(u))
        digits = []
        for _ in range(n):
            digits.append(flat % k)
            flat //= k
        rows.append(digits[::-1])
    return rows


# -- CSV sample files ---------------------------------------------------------

class ReferenceFormatError(ValueError):
    """What the reference CSV reader raises for malformed files; the library
    raises its SampleFormatError with the same message."""


def reference_write_csv(rows, path) -> None:
    """The join-based CSV writer: one line per row, symbols joined by commas."""
    with open(path, "w", newline="") as fh:
        for row in rows:
            fh.write(",".join(str(int(x)) for x in row))
            fh.write("\n")


def reference_read_csv(path, k=None):
    """The per-line CSV reader: (int64 rows, alphabet size) with Python int()
    semantics for every field, universal newlines and stripped whitespace."""
    rows = []
    width = None
    limit = 256 if k is None else k
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            try:
                values = [int(p) for p in parts]
            except ValueError:
                raise ReferenceFormatError(f"{path}:{lineno}: non-integer symbol in {text!r}") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ReferenceFormatError(f"{path}:{lineno}: expected {width} columns, got {len(values)}")
            for v in values:
                if not 0 <= v < limit:
                    if v < 0:
                        raise ReferenceFormatError(f"{path}:{lineno}: negative symbol {v}")
                    if k is None:
                        raise ReferenceFormatError(f"{path}:{lineno}: symbol {v} above 255, the largest one-byte symbol")
                    raise ReferenceFormatError(f"{path}:{lineno}: symbol {v} out of range for k={k}")
            rows.append(values)
    if width is None:
        raise ReferenceFormatError(f"{path}: no samples")
    arr = np.array(rows, dtype=np.int64)
    return arr, (k if k is not None else max(2, int(arr.max()) + 1))
