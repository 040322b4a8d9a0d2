"""Counting every variable pair in one pass, and the MI matrix built on it.

Core claims:
    - the count pass yields exactly empirical_counts for every pair i < j,
      by i and then j ascending, as one stack of tables per row i (several
      when a row exceeds the stack budget), on both sides of the
      alphabet-size crossover, at every chunk edge and across several
      variable blocks
    - mi_matrix weights are bit-identical to the per-pair bincount loop of
      tests/oracles.py, and exact_mi_matrix weights to the per-pair call,
      however the rows are cut into stacks
    - each table of a pair_marginal stack, of one source's nodes or of
      pairs with many sources, is bit-identical to the product of transition
      steps along the tree path from the identity, and exact_mi_matrix makes
      one pair_marginal call per stack-budget span of its pairs, not one per
      source row; the transitions a call holds stay within a fixed multiple
      of the stack budget
    - equal count tables give bit-equal weights, so the pinned Kruskal
      tie-break still decides between duplicated columns
"""

import tracemalloc

import numpy as np
import pytest

from chowliu import (
    Alphabet,
    RootedTree,
    SampleSet,
    TreeModel,
    UndirectedTree,
    empirical_counts,
    exact_mi_matrix,
    max_weight_spanning_tree,
    mi_matrix,
    mutual_information,
    node_marginals,
    pair_marginal,
    random_tree_model,
)
from chowliu import estimation, info, model
from chowliu.estimation import _ONE_HOT_MAX_K, _count_plan, _pair_counts
from chowliu.model import _conditional_rows

from oracles import pairwise_plug_in_mi

# Alphabet sizes on both sides of the one-hot / bincount crossover.
ALPHABETS = (2, 3, 8, _ONE_HOT_MAX_K, _ONE_HOT_MAX_K + 1, 17)


def chunk_edge_sizes(n: int, k: int) -> tuple:
    """Sample counts around the chunk size of the one-hot pass."""
    rows = _count_plan(n, k)[0]
    return (1, rows - 1, rows, rows + 1, 3 * rows + 5)


def random_set(n: int, k: int, count: int, seed: int) -> SampleSet:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, k, size=(count, n))
    if n >= 3:  # a dependent pair, so not every weight is near zero
        rows[:, 2] = (rows[:, 0] + (rng.random(count) < 0.25)) % k
    return SampleSet(Alphabet(k), rows)


def assert_counts_match(s: SampleSet) -> None:
    n = s.n_variables
    got = list(_pair_counts(s))
    assert [(i, j) for i, js, _ in got for j in js] == [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, js, counts in got:
        assert counts.dtype == np.int64 and counts.flags.c_contiguous
        assert counts.shape == (len(js), s.alphabet.size, s.alphabet.size)
        for j, table in zip(js, counts):
            assert np.array_equal(table, empirical_counts(s, (i, j)).counts), (i, j)


@pytest.mark.parametrize("one_hot_everywhere", [False, True], ids=["default", "one-hot-forced"])
@pytest.mark.parametrize("k", ALPHABETS)
def test_pair_counts_equal_empirical_counts(k, one_hot_everywhere, monkeypatch):
    if one_hot_everywhere:
        monkeypatch.setattr(estimation, "_ONE_HOT_MAX_K", 256)
    for count in chunk_edge_sizes(5, k):
        assert_counts_match(random_set(5, k, count, seed=count))


def test_pair_counts_across_variable_blocks():
    n, k = 60, 8
    rows, block = _count_plan(n, k)
    assert block < n, "n * k must be large enough to need more than one block"
    assert_counts_match(random_set(n, k, rows + 3, seed=1))


def test_pair_counts_of_an_empty_sample_set_are_zero():
    s = SampleSet(Alphabet(3), np.zeros((0, 3), dtype=np.uint8))
    assert all(np.array_equal(counts, np.zeros((len(js), 3, 3))) for _, js, counts in _pair_counts(s))


def test_rows_split_into_stacks_within_the_budget(monkeypatch):
    n, k = 7, _ONE_HOT_MAX_K + 1
    monkeypatch.setattr(info, "_STACK_BUDGET_BYTES", 2 * 8 * k * k)  # two tables a stack
    s = random_set(n, k, 500, seed=3)
    rows = list(_pair_counts(s))
    assert [len(js) for i, js, _ in rows if i == 0] == [2, 2, 2]
    assert_counts_match(s)
    assert np.array_equal(mi_matrix(s).weights, pairwise_plug_in_mi(s.rows, k))


@pytest.mark.parametrize("k", [2, _ONE_HOT_MAX_K + 1])
def test_exact_mi_matrix_is_bit_identical_to_the_per_pair_call(k, monkeypatch):
    n = 40  # long paths: many steps up and down between most pairs
    m = random_tree_model(n, k, seed=k)
    reference = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            reference[u, v] = reference[v, u] = mutual_information(pair_marginal(m, u, v))
    assert np.array_equal(exact_mi_matrix(m), reference)
    monkeypatch.setattr(info, "_STACK_BUDGET_BYTES", 1)  # one table a stack
    assert np.array_equal(exact_mi_matrix(m), reference)


def path_product_table(m, marginals, u: int, v: int) -> np.ndarray:
    """The joint table of (X_u, X_v) as the product of transition steps along
    the tree path from the identity, left to right: a step down to a child is
    the child's conditional table, a step up inverts the stored conditional
    through the joint."""
    path = m.tree.path(u, v)
    trans = np.eye(m.k)
    for a, b in zip(path, path[1:]):
        if m.tree.parent[b] == a:
            step = m.cpt[b]
        else:
            step = _conditional_rows((marginals[b][:, None] * m.cpt[a]).T)[0]
        trans = trans @ step
    return marginals[u][:, None] * trans


def zero_mass_parent_model() -> TreeModel:
    # X_1 is never 1, so row 1 of P(X_0 | X_1) has no mass and is set uniform.
    return TreeModel(RootedTree(2, 0, (-1, 0)), Alphabet(2), [1.0, 0.0], {1: [[1.0, 0.0], [0.5, 0.5]]})


@pytest.mark.parametrize("k", [2, 3, 4, 5, 11, "zero-mass-parent"])
def test_pair_marginal_stack_is_bit_identical_to_the_path_product(k):
    m = zero_mass_parent_model() if k == "zero-mass-parent" else random_tree_model(12, k, seed=20 + k)
    marginals = node_marginals(m)
    rng = np.random.default_rng(m.n * m.k)
    for u in range(m.n):
        vs = [v for v in range(m.n) if v != u]
        rng.shuffle(vs)
        stack = pair_marginal(m, u, vs)
        reference = np.stack([path_product_table(m, marginals, u, v) for v in vs])
        assert np.array_equal(stack, reference) and np.array_equal(np.signbit(stack), np.signbit(reference)), u


@pytest.mark.parametrize("k", [2, 3, 4, 5, 11, "zero-mass-parent"])
def test_pair_marginal_of_pairs_is_bit_identical_to_the_path_product(k):
    m = zero_mass_parent_model() if k == "zero-mass-parent" else random_tree_model(12, k, seed=20 + k)
    marginals = node_marginals(m)
    pairs = [(u, v) for u in range(m.n) for v in range(m.n) if u != v]
    np.random.default_rng(m.n * m.k).shuffle(pairs)
    us, vs = zip(*pairs)
    stack = pair_marginal(m, us, vs)
    reference = np.stack([path_product_table(m, marginals, u, v) for u, v in pairs])
    assert np.array_equal(stack, reference) and np.array_equal(np.signbit(stack), np.signbit(reference))


def star_model(n: int, k: int) -> TreeModel:
    rng = np.random.default_rng(n)
    cpt = {x: rng.dirichlet(np.ones(k), size=k) for x in range(1, n)}
    return TreeModel(RootedTree(n, 0, (-1,) + (0,) * (n - 1)), Alphabet(k), rng.dirichlet(np.ones(k)), cpt)


def test_pair_marginal_holds_transitions_within_the_stack_budget(monkeypatch):
    n, k = 400, 16
    m = star_model(n, k)
    monkeypatch.setattr(info, "_STACK_BUDGET_BYTES", 4 * 8 * k * k)  # four tables a stack
    pairs = [(1, 2), (1, 3), (5, 2), (5, 0), (7, 9), (8, 399)]
    pair_marginal(m, *zip(*pairs))
    tracemalloc.start()
    try:
        stack = pair_marginal(m, *zip(*pairs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Walking to every leaf from a leaf source would hold n - 2 transitions
    # (800 KB) at distance 2.  Within the budget a call holds a few budgets'
    # worth of them, beside per-node bookkeeping (the node marginals and the
    # walks' lists) and its own output.
    assert peak < 4 * info._STACK_BUDGET_BYTES + 3 * n * k * 8 + 200 * n + stack.nbytes
    marginals = node_marginals(m)
    for table, (u, v) in zip(stack, pairs):
        assert np.array_equal(table, path_product_table(m, marginals, u, v))


def test_exact_mi_matrix_walks_once_per_stack(monkeypatch):
    calls = {"pair_marginal": 0, "node_marginals": 0}

    def counting(name):
        original = getattr(model, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(model, name, counting(name))
    n, k = 40, 3
    m = random_tree_model(n, k, seed=4)
    exact_mi_matrix(m)
    assert calls == {"pair_marginal": 1, "node_marginals": 1}
    calls.update(pair_marginal=0, node_marginals=0)
    monkeypatch.setattr(info, "_STACK_BUDGET_BYTES", 8 * k * k)  # one table a stack
    spans = len(list(info._row_spans(0, n * (n - 1) // 2, k)))
    assert spans == n * (n - 1) // 2
    exact_mi_matrix(m)
    assert calls == {"pair_marginal": spans, "node_marginals": spans}


@pytest.mark.parametrize("k", ALPHABETS)
def test_mi_matrix_bit_identical_to_per_pair_loop(k):
    for count in chunk_edge_sizes(6, k):
        s = random_set(6, k, count, seed=k * count)
        assert np.array_equal(mi_matrix(s).weights, pairwise_plug_in_mi(s.rows, k))


def test_mi_matrix_bit_identical_across_variable_blocks():
    n, k = 60, 8
    assert _count_plan(n, k)[1] < n
    s = random_set(n, k, 700, seed=2)
    assert np.array_equal(mi_matrix(s).weights, pairwise_plug_in_mi(s.rows, k))


def test_duplicate_columns_get_bit_equal_weights_and_the_pinned_tree():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 3, 2000)
    b = (a + (rng.random(2000) < 0.2)) % 3
    c = (b + (rng.random(2000) < 0.3)) % 3
    # Column 2 duplicates column 1, so pairs (0, 1) and (0, 2), and pairs
    # (1, 3) and (2, 3), have equal count tables.
    s = SampleSet(Alphabet(3), np.stack([a, b, b, c], axis=1))
    w = mi_matrix(s).weights
    assert w[0, 1] == w[0, 2] and w[1, 3] == w[2, 3]
    assert np.array_equal(w, pairwise_plug_in_mi(s.rows, 3))
    # (1, 2) is the heaviest edge; each tie then goes to the smaller endpoint.
    assert max_weight_spanning_tree(w) == UndirectedTree(4, ((0, 1), (1, 2), (1, 3)))


def test_transposed_columns_match_the_reference_and_its_tree():
    rng = np.random.default_rng(8)
    x = rng.integers(0, 4, 1500)
    y = (x + rng.integers(0, 2, 1500)) % 4
    # Pair (2, 3) holds the transpose of pair (0, 1)'s table.  Its entropy
    # sums the joint in another order, so the two weights agree to rounding.
    s = SampleSet(Alphabet(4), np.stack([x, y, y, x], axis=1))
    w = mi_matrix(s).weights
    reference = pairwise_plug_in_mi(s.rows, 4)
    assert np.array_equal(w, reference)
    assert w[0, 1] == pytest.approx(w[2, 3], rel=0.0, abs=1e-15)
    assert max_weight_spanning_tree(w) == max_weight_spanning_tree(reference)
