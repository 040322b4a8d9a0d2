"""Structure learning: MI matrices, maximum-weight trees, edge exchanges.

Core claims:
    - MIMatrix rejects asymmetry and negative weights, zeroes the diagonal;
      its symmetry check decides as np.allclose(w, w.T, rtol=0, atol=1e-12)
      does: equal infinities pass, NaN fails as a weight, and entries more
      than 1e-12 apart fail
    - mi_matrix matches hand-computed plug-in values and concentrates on
      product data
    - Kruskal output weight equals the exhaustive maximum over all labeled
      trees (sequence-decoding oracle), with the pinned deterministic
      tie-break: its tree equals a Kruskal over sorted(key=(-w, u, v)),
      also where most weights tie
    - the end-to-end structure learner finds dominant edges and is exactly
      the MST of the MI matrix
    - exchange_pairing is a bijection between the two one-sided edge
      differences and every single swap stays a spanning tree
"""

import math

import numpy as np
import pytest

from chowliu import (
    Alphabet,
    MIMatrix,
    SampleSet,
    UndirectedTree,
    add_one_estimate,
    chow_liu_structure,
    empirical_counts,
    exchange_pairing,
    learn_tree_distribution,
    max_weight_spanning_tree,
    mi_matrix,
    realizable_triple,
    sample,
    sample_dense,
    to_dense,
    tree_weight,
    random_tree_model,
)
from chowliu.model import RootedTree, TreeModel

from oracles import best_tree_weight, direct_mi, is_spanning_tree

LN2 = math.log(2.0)


# -- MIMatrix ------------------------------------------------------------------

def test_mi_matrix_type_validation():
    m = MIMatrix([[0.5, 0.2], [0.2, 0.1]])
    assert m.n == 2
    assert np.all(np.diag(m.weights) == 0.0)
    with pytest.raises(ValueError):
        MIMatrix([[0.0, 0.1], [0.2, 0.0]])
    with pytest.raises(ValueError):
        MIMatrix([[0.0, -0.1], [-0.1, 0.0]])
    with pytest.raises(ValueError):
        MIMatrix([[0.0, 0.1, 0.2], [0.1, 0.0, 0.3]])


def test_mi_matrix_symmetry_check_keeps_the_allclose_decisions():
    inf, nan = math.inf, math.nan
    m = MIMatrix([[0.0, inf], [inf, 0.0]])  # no inf - inf warning either
    assert m.weights[0, 1] == inf
    with pytest.raises(ValueError, match="symmetric"):
        MIMatrix([[0.0, inf], [1.0, 0.0]])
    with pytest.raises(ValueError, match="NaN weight"):
        MIMatrix([[0.0, nan], [inf, 0.0]])
    MIMatrix([[0.0, 0.0], [1e-12, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        MIMatrix([[0.0, 0.0], [2e-12, 0.0]])
    # Off-diagonal gaps either side of 1e-12, at several magnitudes.
    rng = np.random.default_rng(12)
    decisions = set()
    for scale in (1e-6, 1.0, 1e3):
        for _ in range(50):
            w = rng.random((4, 4)) * scale + scale
            w = w + w.T
            w[1, 2] += rng.choice([0.5e-12, 1e-12, 1.5e-12, 3e-12]) * rng.choice([-1, 1])
            symmetric = np.allclose(w, w.T, rtol=0.0, atol=1e-12)
            try:
                MIMatrix(w)
            except ValueError as err:
                assert not symmetric and "symmetric" in str(err)
            else:
                assert symmetric
            decisions.add(symmetric)
    assert decisions == {True, False}


def test_mi_matrix_identical_columns():
    rows = [[0, 0, 0]] * 5 + [[1, 1, 0]] * 5
    w = mi_matrix(SampleSet(Alphabet(2), rows))
    assert w.weights[0, 1] == pytest.approx(LN2, abs=1e-12)
    # Column 2 is constant, so its whole row is zero MI.
    assert np.allclose(w.weights[2], 0.0, atol=1e-12)


def test_mi_matrix_matches_direct_oracle():
    rng = np.random.default_rng(3)
    s = SampleSet(Alphabet(3), rng.integers(0, 3, size=(200, 4)))
    w = mi_matrix(s)
    for i in range(4):
        for j in range(i + 1, 4):
            joint = empirical_counts(s, (i, j)) / s.n_samples
            assert w.weights[i, j] == pytest.approx(direct_mi(joint), abs=1e-10)


def test_mi_matrix_concentrates_on_product_data():
    tree = RootedTree(3, 0, (-1, 0, 0))
    rows = [[0.3, 0.7], [0.3, 0.7]]  # children ignore the parent: independent
    m = TreeModel(tree, Alphabet(2), [0.5, 0.5], {1: rows, 2: rows})
    s = sample(m, 1_000_000, seed=12)
    w = mi_matrix(s)
    off = w.weights[~np.eye(3, dtype=bool)]
    assert np.max(off) <= 0.01


def test_mi_matrix_requires_samples():
    with pytest.raises(ValueError):
        mi_matrix(SampleSet(Alphabet(2), np.zeros((0, 2), dtype=np.int64)))


# -- maximum-weight spanning tree ----------------------------------------------------

def test_mst_drops_lightest_triangle_edge():
    w = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.4], [0.2, 0.4, 0.0]])
    assert max_weight_spanning_tree(w).edges == ((0, 1), (1, 2))


def test_mst_tie_break_is_lexicographic():
    n = 4
    w = np.full((n, n), 0.3)
    np.fill_diagonal(w, 0.0)
    t = max_weight_spanning_tree(w)
    assert t.edges == ((0, 1), (0, 2), (0, 3))  # first edges in (u, v) order
    assert tree_weight(w, t) == pytest.approx((n - 1) * 0.3, abs=1e-12)


def test_mst_weight_equals_exhaustive_maximum():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        half = rng.random((n, n))
        w = (half + half.T) / 2.0
        np.fill_diagonal(w, 0.0)
        t = max_weight_spanning_tree(w)
        assert is_spanning_tree(n, t.edges)
        assert tree_weight(w, t) == pytest.approx(best_tree_weight(w), abs=1e-12)


def sorted_order_kruskal(w: np.ndarray) -> tuple:
    """Kruskal over sorted(key=(-w, u, v)) with a plain union-find: the pinned
    edge order, written out pair by pair."""
    n = len(w)
    order = sorted(((u, v) for u in range(n) for v in range(u + 1, n)), key=lambda e: (-w[e], e[0], e[1]))
    component = list(range(n))

    def find(x):
        while component[x] != x:
            x = component[x]
        return x

    picked = []
    for u, v in order:
        ru, rv = find(u), find(v)
        if ru != rv:
            component[rv] = ru
            picked.append((u, v))
    return tuple(sorted(picked))


@pytest.mark.parametrize("n", [1, 2, 3, 40, 100])
def test_mst_equals_kruskal_over_the_sorted_order_under_ties(n):
    rng = np.random.default_rng(n)
    half = np.round(rng.random((n, n)), 1)  # ten weight levels: ties between most edges
    w = (half + half.T) / 2.0
    np.fill_diagonal(w, 0.0)
    for weights in (w, np.zeros((n, n)), np.round(w * 2.0) / 2.0):
        assert max_weight_spanning_tree(weights).edges == sorted_order_kruskal(weights)
    assert max_weight_spanning_tree(np.zeros((n, n))).edges == tuple((0, v) for v in range(1, n))


def test_mst_deterministic():
    rng = np.random.default_rng(11)
    half = rng.random((6, 6))
    w = (half + half.T) / 2.0
    np.fill_diagonal(w, 0.0)
    assert max_weight_spanning_tree(w).edges == max_weight_spanning_tree(w).edges


# -- end-to-end structure -------------------------------------------------------------

def test_structure_prefers_copied_columns():
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, size=400)
    fresh = rng.integers(0, 2, size=400)
    rows = np.stack([bits, bits, fresh], axis=1)
    t = chow_liu_structure(SampleSet(Alphabet(2), rows))
    assert (0, 1) in t.edges


def test_structure_two_columns_single_edge():
    s = SampleSet(Alphabet(2), [[0, 1], [1, 0]])
    assert chow_liu_structure(s).edges == ((0, 1),)


def test_structure_is_mst_of_mi_matrix():
    rng = np.random.default_rng(17)
    s = SampleSet(Alphabet(2), rng.integers(0, 2, size=(300, 5)))
    assert chow_liu_structure(s).edges == max_weight_spanning_tree(mi_matrix(s)).edges


def test_structure_finds_strong_pair_of_hard_instance():
    joint = realizable_triple(1, 0.2)
    hits = 0
    for seed in range(100):
        s = sample_dense(joint, 100_000, seed=seed)
        if (1, 2) in chow_liu_structure(s).edges:
            hits += 1
    assert hits >= 95


def test_learn_tree_distribution_product_data():
    rng = np.random.default_rng(19)
    cols = [rng.integers(0, 2, size=20_000) for _ in range(3)]
    s = SampleSet(Alphabet(2), np.stack(cols, axis=1))
    m = learn_tree_distribution(s)
    assert m.tree.root == 0
    marginals = [add_one_estimate(empirical_counts(s, (v,))) for v in range(3)]
    product = np.einsum("i,j,k->ijk", *marginals)
    # Not exact (conditionals are estimated pairwise), but indistinguishable
    # from the product at this sample size.
    assert np.max(np.abs(to_dense(m).table() - product)) <= 0.01


def test_learn_tree_distribution_single_sample():
    s = SampleSet(Alphabet(2), [[0, 1, 1]])
    m = learn_tree_distribution(s)
    assert np.all(to_dense(m).probs > 0.0)


def test_learn_tree_distribution_recovers_known_model():
    truth = random_tree_model(5, 2, seed=23)
    s = sample(truth, 50_000, seed=29)
    learned = learn_tree_distribution(s)
    assert learned.tree.skeleton().edges == truth.tree.skeleton().edges
    assert np.max(np.abs(to_dense(learned).probs - to_dense(truth).probs)) <= 0.01


# -- exchange pairing --------------------------------------------------------------------

def test_exchange_pairing_identical_trees():
    t = UndirectedTree(4, ((0, 1), (1, 2), (2, 3)))
    assert exchange_pairing(t, t) == []


def test_exchange_pairing_path_vs_star():
    path = UndirectedTree(4, ((0, 1), (1, 2), (2, 3)))
    star = UndirectedTree(4, ((0, 1), (0, 2), (0, 3)))
    pairs = exchange_pairing(path, star)
    assert pairs == [((1, 2), (0, 2)), ((2, 3), (0, 3))]
    for e, f in pairs:
        swapped = (set(path.edges) - {e}) | {f}
        assert is_spanning_tree(4, swapped)


def test_exchange_pairing_random_pairs():
    rng = np.random.default_rng(31)
    from chowliu import random_spanning_tree

    for _ in range(40):
        t1 = random_spanning_tree(8, rng)
        t2 = random_spanning_tree(8, rng)
        pairs = exchange_pairing(t1, t2)
        only1 = set(t1.edges) - set(t2.edges)
        only2 = set(t2.edges) - set(t1.edges)
        assert sorted(e for e, _ in pairs) == sorted(only1)
        assert sorted(f for _, f in pairs) == sorted(only2)
        assert len({f for _, f in pairs}) == len(pairs)
        for e, f in pairs:
            swapped = (set(t1.edges) - {e}) | {f}
            assert is_spanning_tree(8, swapped)


def test_exchange_pairing_rejects_size_mismatch():
    a = UndirectedTree(3, ((0, 1), (1, 2)))
    b = UndirectedTree(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError):
        exchange_pairing(a, b)


def test_mi_matrix_rejects_nan_weight_by_name():
    nan = float("nan")
    with pytest.raises(ValueError, match="NaN weight"):
        MIMatrix([[0.0, nan], [nan, 0.0]])
    with pytest.raises(ValueError, match="NaN weight"):
        MIMatrix([[nan, 0.1], [0.1, 0.0]])
