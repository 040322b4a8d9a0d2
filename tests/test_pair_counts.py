"""Counting every variable pair in one pass, and the MI matrix built on it.

Core claims:
    - the count pass yields every pair u < v exactly once, as pair lists
      (us, vs, counts) whose C-contiguous int64 stacks hold exactly
      empirical_counts, at every alphabet size where the group size changes,
      for n below, at and above one and two groups, at every row-chunk edge
      and with symbols that never occur
    - each stack is within the stack budget or one group-pair histogram,
      whichever is larger, and the pass's extra memory is the uint8 group
      codes, one row chunk of pair codes and a few such spans, whatever N
      and k are
    - mi_matrix weights are bit-identical to the per-pair bincount loop of
      tests/oracles.py, and exact_mi_matrix weights to the per-pair call,
      however the pairs are cut into stacks
    - each table of a pair_marginal stack, of pairs with one source or with
      many, is bit-identical to the product of transition steps along the
      tree path from the identity, whose upward steps this file inverts one
      row at a time, up to k = 64, on walks made only of upward steps, on
      a 200-node path's long walks and through a 200-node star's centre;
      exact_mi_matrix makes one pair_marginal call per stack-budget span of
      its pairs, not one per source row, and a call holds a fixed multiple
      of its own output beside per-node bookkeeping
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
from chowliu.estimation import _group_size, _pair_counts

from oracles import pairwise_plug_in_mi

# The widest group at each alphabet size where it changes, and on both sides
# of each change: k^(2g) <= 10,000 bins a pair of groups.
WIDEST_GROUP = {2: 6, 3: 4, 4: 3, 5: 2, 8: 2, 9: 2, 10: 2, 11: 1, 16: 1, 17: 1, 64: 1, 65: 1, 256: 1}
ALPHABETS = tuple(WIDEST_GROUP)
# A row chunk small enough that a few dozen rows cross several of its edges.
SMALL_CHUNK = 7


def chunk_edge_sizes() -> tuple:
    """Sample counts around the edges of row chunks of SMALL_CHUNK rows."""
    return (0, 1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 3 * SMALL_CHUNK + 5)


def random_set(n: int, k: int, count: int, seed: int) -> SampleSet:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, k, size=(count, n))
    if n >= 3:  # a dependent pair, so not every weight is near zero
        rows[:, 2] = (rows[:, 0] + (rng.random(count) < 0.25)) % k
    return SampleSet(Alphabet(k), rows)


def assert_counts_match(s: SampleSet) -> None:
    """Every pair u < v comes exactly once, as a table of a C-contiguous int64
    stack equal to empirical_counts."""
    n, k = s.n_variables, s.alphabet.size
    pairs = []
    for us, vs, counts in _pair_counts(s):
        assert counts.dtype == np.int64 and counts.flags.c_contiguous
        assert counts.shape == (len(us), k, k) and len(vs) == len(us)
        for u, v, table in zip(us, vs, counts):
            assert np.array_equal(table, empirical_counts(s, (u, v))), (u, v)
            pairs.append((int(u), int(v)))
    assert sorted(pairs) == [(u, v) for u in range(n) for v in range(u + 1, n)]


def assert_stacks_within(s: SampleSet, budget: int) -> None:
    """Each stack of the count pass is within the budget or one group-pair
    histogram, whichever is larger."""
    k = s.alphabet.size
    limit = max(budget, 8 * k ** (2 * _group_size(s.n_variables, k)))
    assert all(counts.nbytes <= limit for _, _, counts in _pair_counts(s))


def test_group_sizes():
    for k, widest in WIDEST_GROUP.items():
        assert _group_size(10 * widest, k) == widest, k
    # As few groups as the widest allows, each as small as their number allows.
    assert [_group_size(n, 2) for n in (0, 1, 2, 3, 6, 7, 12, 13, 16, 100)] == [1, 1, 2, 3, 6, 4, 6, 5, 6, 6]
    assert [_group_size(n, 4) for n in (2, 4, 100)] == [2, 2, 3]


# "one-hot-forced" widens every group to the most variables whose code fits a
# byte (k^g <= 256), so the pair tables are read off the widest histograms by
# the one-hot digit selectors.
@pytest.mark.parametrize("widest", [False, True], ids=["default", "one-hot-forced"])
@pytest.mark.parametrize("k", ALPHABETS)
def test_pair_counts_equal_empirical_counts(k, widest, monkeypatch):
    if widest:
        monkeypatch.setattr(estimation, "_GROUP_BINS", 1 << 16)
    monkeypatch.setattr(estimation, "_COUNT_CHUNK_ROWS", SMALL_CHUNK)
    g = _group_size(1 << 20, k)
    for n in sorted({1, 2, max(1, g - 1), g, g + 1, 2 * g + 1}):
        for count in chunk_edge_sizes():
            assert_counts_match(random_set(n, k, count, seed=count + 100 * n))


def test_pair_counts_at_the_row_chunk_edges():
    chunk = estimation._COUNT_CHUNK_ROWS
    for count in (chunk - 1, chunk, chunk + 1):
        assert_counts_match(random_set(8, 3, count, seed=count))


def test_group_codes_across_their_chunks(monkeypatch):
    n, k = 13, 3
    monkeypatch.setattr(estimation, "_CODE_CHUNK_BYTES", 2 * n)  # two rows a chunk
    assert_counts_match(random_set(n, k, 9, seed=5))


@pytest.mark.parametrize("k", [2, 5, 17, 256])
def test_pair_counts_with_symbols_that_never_occur(k):
    rng = np.random.default_rng(k)
    rows = rng.integers(0, 2, size=(300, 9))  # only symbols 0 and 1 of k
    # Constant columns at the last symbol; at k = 256 their pair code is
    # 2^16 - 1, the largest.
    rows[:, 4] = rows[:, 6] = k - 1
    rows[:, 7] = 0
    assert_counts_match(SampleSet(Alphabet(k), rows))


def test_pair_counts_across_variable_blocks(monkeypatch):
    n, k = 60, 8
    monkeypatch.setattr(estimation, "_COUNT_CHUNK_ROWS", 64)
    assert _group_size(n, k) == 2  # 30 groups, 465 pairs of them
    assert_counts_match(random_set(n, k, 150, seed=1))


def test_pair_counts_of_an_empty_sample_set_are_zero():
    s = SampleSet(Alphabet(3), np.zeros((0, 3), dtype=np.uint8))
    assert all(np.array_equal(counts, np.zeros((len(us), 3, 3))) for us, _, counts in _pair_counts(s))
    assert list(_pair_counts(SampleSet(Alphabet(3), np.zeros((5, 0), dtype=np.uint8)))) == []


def test_rows_split_into_stacks_within_the_budget(monkeypatch):
    n, k = 7, 11
    budget = 2 * 8 * k * k  # two tables a stack
    monkeypatch.setattr(info, "_STACK_BUDGET_BYTES", budget)
    s = random_set(n, k, 500, seed=3)
    assert [len(us) for us, _, _ in _pair_counts(s) if us[0] == 0] == [2, 2, 2]
    assert_stacks_within(s, budget)
    assert_counts_match(s)
    assert np.array_equal(mi_matrix(s).weights, pairwise_plug_in_mi(s.rows, k))


@pytest.mark.parametrize("k", [2, 4, 256])
def test_grouped_rows_split_into_stacks_within_the_budget(k, monkeypatch):
    n = 2 * _group_size(1 << 20, k) + 3
    budget = 3 * 8 * k * k  # three tables a stack, one group pair a span
    monkeypatch.setattr(info, "_STACK_BUDGET_BYTES", budget)
    s = random_set(n, k, 200, seed=k)
    assert_stacks_within(s, budget)
    assert_counts_match(s)
    assert np.array_equal(mi_matrix(s).weights, pairwise_plug_in_mi(s.rows, k))


@pytest.mark.parametrize("n, k, count, budget", [(40, 2, 300_000, 64), (8, 256, 2000, 2 * 8 * 256 * 256)],
                         ids=["tall", "k256"])
def test_count_pass_memory_is_bounded(n, k, count, budget, monkeypatch):
    monkeypatch.setattr(info, "_STACK_BUDGET_BYTES", budget)
    s = SampleSet(Alphabet(k), np.random.default_rng(6).integers(0, k, size=(count, n), dtype=np.uint8))
    list(_pair_counts(random_set(n, k, 3, seed=7)))  # caches the digit selectors
    tracemalloc.start()
    try:
        for _ in _pair_counts(s):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    g = _group_size(n, k)
    codes = -(-n // g) * count  # one byte a group and sample: at most the sample's bytes / g, rounded up
    pair_codes = 12 * estimation._COUNT_CHUNK_ROWS  # two uint16 arrays and bincount's intp copy
    # A span of group-pair histograms (at least one) with its float64 copy and
    # product, or a stack, the span it is read off and the stack before it,
    # which the caller may still hold.
    spans = 3 * max(budget, 8 * k ** (2 * g))
    assert peak < codes + pair_codes + spans + (64 << 10)


def oracle_model(n: int, k: int, seed: int) -> TreeModel:
    """random_tree_model with its default cpt floor where that is feasible."""
    return random_tree_model(n, k, seed, cpt_floor=0.05 if 0.05 * k < 1 else 0.01)


@pytest.mark.parametrize("k", [2, 11, 17, 64])
def test_exact_mi_matrix_is_bit_identical_to_the_per_pair_call(k, monkeypatch):
    n = 40  # long paths: many steps up and down between most pairs
    m = oracle_model(n, k, seed=k)
    reference = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            reference[u, v] = reference[v, u] = mutual_information(pair_marginal(m, u, v))
    assert np.array_equal(exact_mi_matrix(m), reference)
    monkeypatch.setattr(info, "_STACK_BUDGET_BYTES", 1)  # one table a stack
    assert np.array_equal(exact_mi_matrix(m), reference)


def upward_step(parent_marginal: np.ndarray, cpt: np.ndarray) -> np.ndarray:
    """P(X_parent | X_child), one child symbol's row at a time: that column of
    the (parent, child) joint over its mass, uniform where the mass is zero."""
    joint = parent_marginal[:, None] * cpt
    k = len(joint)
    rows = np.empty((k, k))
    for b in range(k):
        mass = float(joint[:, b].sum())
        rows[b] = joint[:, b] / mass if mass > 0.0 else 1.0 / k
    return rows


def path_product_table(m, marginals, u: int, v: int) -> np.ndarray:
    """The joint table of (X_u, X_v) as the product of transition steps along
    the tree path from the identity, left to right: a step down to a child is
    the child's conditional table, a step up inverts the stored conditional
    through the joint."""
    path = m.tree.path(u, v)
    trans = np.eye(m.k)
    for a, b in zip(path, path[1:]):
        trans = trans @ (m.cpt[b] if m.tree.parent[b] == a else upward_step(marginals[b], m.cpt[a]))
    return marginals[u][:, None] * trans


def zero_mass_parent_model() -> TreeModel:
    # X_1 is never 1, so row 1 of P(X_0 | X_1) has no mass and is set uniform.
    return TreeModel(RootedTree(2, 0, (-1, 0)), Alphabet(2), [1.0, 0.0], {1: [[1.0, 0.0], [0.5, 0.5]]})


@pytest.mark.parametrize("k", [2, 3, 4, 5, 11, "zero-mass-parent"])
def test_pair_marginal_stack_is_bit_identical_to_the_path_product(k):
    m = zero_mass_parent_model() if k == "zero-mass-parent" else random_tree_model(12, k, seed=20 + k)
    marginals = node_marginals(m)
    rng = np.random.default_rng(m.n * m.k)
    for u in range(m.n):  # one source a stack
        vs = [v for v in range(m.n) if v != u]
        rng.shuffle(vs)
        stack = pair_marginal(m, [u] * len(vs), vs)
        reference = np.stack([path_product_table(m, marginals, u, v) for v in vs])
        assert np.array_equal(stack, reference) and np.array_equal(np.signbit(stack), np.signbit(reference)), u


@pytest.mark.parametrize("k", [2, 3, 4, 5, 11, 17, 64, "zero-mass-parent"])
def test_pair_marginal_of_pairs_is_bit_identical_to_the_path_product(k):
    m = zero_mass_parent_model() if k == "zero-mass-parent" else oracle_model(12, k, seed=20 + k)
    marginals = node_marginals(m)
    pairs = [(u, v) for u in range(m.n) for v in range(m.n) if u != v]
    np.random.default_rng(m.n * m.k).shuffle(pairs)
    us, vs = zip(*pairs)
    stack = pair_marginal(m, us, vs)
    reference = np.stack([path_product_table(m, marginals, u, v) for u, v in pairs])
    assert np.array_equal(stack, reference) and np.array_equal(np.signbit(stack), np.signbit(reference))


def chain_model(n: int, k: int) -> TreeModel:
    """Node i's parent is i - 1, so the walk from a node to any lower node
    takes only upward steps; sparse Dirichlet rows spread the masses."""
    rng = np.random.default_rng(k)
    cpt = {x: rng.dirichlet(np.full(k, 0.3), size=k) for x in range(1, n)}
    return TreeModel(RootedTree(n, 0, tuple(range(-1, n - 1))), Alphabet(k), rng.dirichlet(np.ones(k)), cpt)


@pytest.mark.parametrize("k", [2, 3, 9, 17, 33, 64])
def test_pair_marginal_of_only_upward_steps_is_bit_identical_to_the_path_product(k):
    m = chain_model(8, k)
    marginals = node_marginals(m)
    pairs = [(u, v) for u in range(m.n) for v in range(u)]
    reference = [path_product_table(m, marginals, u, v) for u, v in pairs]
    for (u, v), table in zip(pairs, reference):
        assert np.array_equal(pair_marginal(m, u, v), table), (u, v)
    assert np.array_equal(pair_marginal(m, *zip(*pairs)), np.stack(reference))


def star_model(n: int, k: int) -> TreeModel:
    rng = np.random.default_rng(n)
    cpt = {x: rng.dirichlet(np.ones(k), size=k) for x in range(1, n)}
    return TreeModel(RootedTree(n, 0, (-1,) + (0,) * (n - 1)), Alphabet(k), rng.dirichlet(np.ones(k)), cpt)


@pytest.mark.parametrize("shape", ["path", "star"])
def test_pair_marginal_of_long_walks_and_wide_fans_is_bit_identical_to_the_path_product(shape):
    # A 200-node path walks up to 199 steps up or down; a star's pairs all
    # turn at the centre, so each walk picks one child among 199.
    n, k = 200, 3
    m = chain_model(n, k) if shape == "path" else star_model(n, k)
    marginals = node_marginals(m)
    rng = np.random.default_rng(n)
    pairs = [(0, n - 1), (n - 1, 0), (n // 2, 1), (1, n // 2), (n - 2, n - 1)]
    pairs += [tuple(int(x) for x in rng.choice(n, 2, replace=False)) for _ in range(60)]
    stack = pair_marginal(m, *zip(*pairs))
    for table, (u, v) in zip(stack, pairs):
        assert np.array_equal(table, path_product_table(m, marginals, u, v)), (u, v)
        assert np.array_equal(pair_marginal(m, u, v), table), (u, v)


def test_pair_marginal_holds_transitions_within_the_stack_budget():
    n, k = 400, 16
    m = star_model(n, k)
    pairs = [(1, 2), (1, 3), (5, 2), (5, 0), (7, 9), (8, 399)]
    pair_marginal(m, *zip(*pairs))
    tracemalloc.start()
    try:
        stack = pair_marginal(m, *zip(*pairs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Walking to every leaf from a leaf source would hold n - 2 transitions
    # (800 KB) at distance 2.  A call walks only towards its wanted nodes, so
    # the transitions of two distances and the inverted upward steps hold at
    # most a few times its own output, beside per-node bookkeeping (the node
    # marginals and the walks' lists); exact_mi_matrix's stack-budget spans
    # bound that output.
    assert peak < 4 * stack.nbytes + 3 * n * k * 8 + 200 * n
    marginals = node_marginals(m)
    for table, (u, v) in zip(stack, pairs):
        assert np.array_equal(table, path_product_table(m, marginals, u, v))


@pytest.mark.parametrize("n", [2, 5, 17, 61])
def test_pair_marginal_makes_one_transition_per_source_and_node(n, monkeypatch):
    # Sorted by source and cyclic preorder place, the pairs at one (source,
    # node) are one run at every distance; a split run would make its
    # transition twice.
    m = random_tree_model(n, 2, seed=n)
    rng = np.random.default_rng(n)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng.shuffle(pairs)
    pairs = pairs[: max(1, len(pairs) // 2)]
    walked = {(u, x) for u, v in pairs for x in m.tree.path(u, v)[1:]}
    made = []
    matmul = np.matmul

    def counting(a, b):
        made.append(len(a))
        return matmul(a, b)

    monkeypatch.setattr(model.np, "matmul", counting)
    pair_marginal(m, *zip(*pairs))
    assert sum(made) == len(walked)


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
def test_mi_matrix_bit_identical_to_per_pair_loop(k, monkeypatch):
    monkeypatch.setattr(estimation, "_COUNT_CHUNK_ROWS", SMALL_CHUNK)
    for count in chunk_edge_sizes()[1:]:
        s = random_set(2 * _group_size(1 << 20, k) + 1, k, count, seed=k * count)
        assert np.array_equal(mi_matrix(s).weights, pairwise_plug_in_mi(s.rows, k))


def test_mi_matrix_bit_identical_across_variable_blocks():
    n, k = 60, 8
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
