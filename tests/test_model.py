"""Tree-factored models, dense joints, projections, and divergences.

Core claims:
    - constructors reject malformed alphabets, tables, trees, and parent maps
    - every entry point that takes variable indices words a duplicate and an
      index out of range the same way, and rejects a fractional index, naming
      it, where it once truncated it
    - to_dense reproduces the factored product
    - ancestral sampling is deterministic per seed and consistent at large N
    - pair_marginal composes transitions along the unique path and matches
      dense marginalization, including where it inverts a conditional through
      a zero-probability parent symbol; given sequences of sources and nodes
      of one length, it returns their tables as one stack, empty for none,
      after checking every pair with the same wording, and it rejects a node
      given with a sequence
    - projecting a tree model's joint onto its own skeleton gives back the
      same joint at every root
    - every path triple in a tree model has exactly zero conditional MI
    - project_onto_tree matches the input's edge marginals and beats random
      same-skeleton models in KL
    - the total-correlation-minus-weight identity and the three-term KL
      decomposition agree with brute-force KL
    - statistical distances: TV/Hellinger basics, Pinsker, tensorization
    - random_tree_model draws the same tree and rows, bit for bit, as one
      Dirichlet draw per row would
    - JSON round-trips preserve every float bit-exactly
"""

import json
import math

import numpy as np
import pytest

from chowliu import (
    Alphabet,
    DenseJoint,
    RootedTree,
    SampleSet,
    TreeModel,
    UndirectedTree,
    conditional_mi,
    empirical_counts,
    exact_mi_matrix,
    kl_decomposition,
    kl_divergence,
    kl_to_tree_projection,
    node_marginals,
    pair_marginal,
    project_onto_tree,
    random_spanning_tree,
    random_tree_model,
    realizable_triple,
    root_at,
    sample,
    sample_dense,
    statistical_distances,
    to_dense,
    validate_tree_model,
)
from chowliu.hardinstances import block_product
from chowliu.harness import ExperimentConfig
from chowliu.model import (
    DENSE_CAP,
    tree_model_from_json,
    tree_model_to_json,
    undirected_tree_from_json,
    undirected_tree_to_json,
)

from oracles import direct_kl, direct_mi, is_spanning_tree, random_joint_table

LN2 = math.log(2.0)


# -- helpers -----------------------------------------------------------------

def flip_chain(flip1: float, flip2: float, root=(0.5, 0.5)) -> TreeModel:
    """Chain 0 -> 1 -> 2 of binary symmetric channels with given flip probs."""
    tree = RootedTree(3, 0, (-1, 0, 1))
    cpt = {
        1: [[1.0 - flip1, flip1], [flip1, 1.0 - flip1]],
        2: [[1.0 - flip2, flip2], [flip2, 1.0 - flip2]],
    }
    return TreeModel(tree, Alphabet(2), np.array(root), cpt)


def random_dense(n: int, k: int, rng) -> DenseJoint:
    return DenseJoint(n, Alphabet(k), random_joint_table(n, k, rng).reshape(-1))


# -- constructors ----------------------------------------------------------------

def test_alphabet_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        Alphabet(1)
    with pytest.raises(ValueError):
        Alphabet(2.0)


def test_alphabet_takes_a_numpy_integer_size_as_an_int():
    alphabet = Alphabet(np.int64(3))
    assert alphabet.size == 3 and type(alphabet.size) is int
    with pytest.raises(ValueError, match="^alphabet size 2.5 is not an integer$"):
        Alphabet(2.5)
    with pytest.raises(ValueError, match="^alphabet size must be an int >= 2, got 1$"):
        Alphabet(np.int64(1))


def test_dense_joint_validation():
    with pytest.raises(ValueError):
        DenseJoint(2, Alphabet(2), [0.5, 0.5, 0.1, -0.1])
    with pytest.raises(ValueError):
        DenseJoint(2, Alphabet(2), [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        DenseJoint(2, Alphabet(2), [0.5, 0.5])
    with pytest.raises(ValueError):
        DenseJoint(25, Alphabet(2), [1.0])  # 2^25 cells exceeds the dense cap
    assert DENSE_CAP == 1 << 24


def test_dense_joint_marginal_orders_and_duplicates():
    rng = np.random.default_rng(3)
    p = random_dense(3, 2, rng)
    m01 = p.marginal((0, 1))
    m10 = p.marginal((1, 0))
    assert np.allclose(m01, m10.T, atol=0)
    with pytest.raises(ValueError):
        p.marginal((0, 0))
    with pytest.raises(ValueError):
        p.marginal((0, 3))


def test_every_index_check_has_one_wording():
    m = random_tree_model(4, 2, seed=5)
    p = random_dense(4, 2, np.random.default_rng(4))
    s = SampleSet(Alphabet(2), np.zeros((3, 4), dtype=np.uint8))
    tree = m.tree.skeleton()
    checks = [
        (lambda: empirical_counts(s, (2, 2)), "duplicate variables in (2, 2)"),
        (lambda: empirical_counts(s, (1, 9)), "variable 9 out of range for n=4"),
        (lambda: p.marginal((2, 2)), "duplicate variables in (2, 2)"),
        (lambda: p.marginal((9,)), "variable 9 out of range for n=4"),
        (lambda: pair_marginal(m, 2, 2), "duplicate variables in (2, 2)"),
        (lambda: pair_marginal(m, 0, 9), "variable 9 out of range for n=4"),
        (lambda: m.tree.path(9, 0), "variable 9 out of range for n=4"),
        (lambda: m.tree.path(0, -1), "variable -1 out of range for n=4"),
        (lambda: root_at(tree, 5), "variable 5 out of range for n=4"),
        (lambda: RootedTree(4, 5, m.tree.parent), "variable 5 out of range for n=4"),
    ]
    for call, message in checks:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    assert m.tree.path(2, 2) == [2]


def test_dense_marginal_rejects_a_fractional_variable():
    p = random_dense(4, 2, np.random.default_rng(4))
    with pytest.raises(ValueError, match=r"^variable 0\.7 is not an integer$"):
        p.marginal((0.7,))


def test_empirical_counts_rejects_a_fractional_variable():
    s = SampleSet(Alphabet(2), np.zeros((3, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"^variable 0\.5 is not an integer$"):
        empirical_counts(s, (0.5, 1.5))


def test_pair_marginal_rejects_a_fractional_variable():
    m = random_tree_model(4, 2, seed=5)
    with pytest.raises(ValueError, match=r"^variable 0\.5 is not an integer$"):
        pair_marginal(m, 0.5, 2.9)


def test_undirected_tree_rejects_a_fractional_node():
    with pytest.raises(ValueError, match=r"^edge node 1\.5 is not an integer$"):
        UndirectedTree(3, ((0, 1.5), (0, 2)))


def test_rooted_tree_rejects_a_fractional_parent_or_root():
    with pytest.raises(ValueError, match=r"^parent 0\.5 is not an integer$"):
        RootedTree(3, 0, (-1, 0.5, 1))
    with pytest.raises(ValueError, match=r"^variable 1\.0 is not an integer$"):
        RootedTree(3, 1.0, (1, -1, 1))


def test_root_at_rejects_a_fractional_root():
    tree = random_tree_model(4, 2, seed=5).tree.skeleton()
    with pytest.raises(ValueError, match=r"^variable 2\.2 is not an integer$"):
        root_at(tree, 2.2)


@pytest.mark.parametrize(
    "make",
    [lambda: DenseJoint(1.5, Alphabet(4), np.full(8, 1 / 8)),
     lambda: UndirectedTree(2.0, ((0, 1),)),
     lambda: RootedTree(2.0, 0, (-1, 0))],
    ids=["dense-joint", "undirected-tree", "rooted-tree"],
)
def test_constructors_reject_a_fractional_variable_count(make):
    with pytest.raises(ValueError, match=r"^variable count (1\.5|2\.0) is not an integer$"):
        make()


def test_a_numpy_integer_root_is_stored_as_an_int():
    assert type(RootedTree(2, np.int64(1), (1, -1)).root) is int
    m = random_tree_model(4, 2, seed=5)
    assert type(root_at(m.tree.skeleton(), np.int64(1)).root) is int
    projection = project_onto_tree(to_dense(m), m.tree.skeleton(), np.int64(1))
    assert tree_model_from_json(tree_model_to_json(projection)).tree.root == 1


def test_undirected_tree_normalizes_and_validates():
    t = UndirectedTree(3, ((2, 1), (1, 0)))
    assert t.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        UndirectedTree(3, ((0, 0), (1, 2)))
    with pytest.raises(ValueError):
        UndirectedTree(3, ((0, 1), (0, 3)))
    with pytest.raises(ValueError):
        UndirectedTree(3, ((0, 1),))
    with pytest.raises(ValueError):
        UndirectedTree(4, ((0, 1), (1, 2), (0, 2)))  # cycle leaves node 3 cut off


def test_rooted_tree_rejects_cycles():
    with pytest.raises(ValueError, match="[Cc]ycle"):
        RootedTree(3, 0, (-1, 2, 1))
    with pytest.raises(ValueError):
        RootedTree(3, 0, (0, 0))
    with pytest.raises(ValueError):
        RootedTree(3, 0, (-1, 0, 5))


def test_tree_constructors_name_a_duplicate_edge_a_root_with_a_parent_and_a_self_parent():
    with pytest.raises(ValueError, match="^duplicate edge$"):
        UndirectedTree(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="^parent of the root must be -1$"):
        RootedTree(3, 0, (1, -1, 1))
    with pytest.raises(ValueError, match="^cycle: node 2 is its own parent$"):
        RootedTree(3, 0, (-1, 0, 2))


def test_dense_joint_needs_a_variable_and_a_table_within_the_cap():
    with pytest.raises(ValueError, match="^need at least one variable$"):
        DenseJoint(0, Alphabet(2), [1.0])
    # 5**11 entries: n is below the bit length of the cap, so the power is taken.
    with pytest.raises(ValueError, match=f"^dense table of {5**11} entries exceeds cap {DENSE_CAP}$"):
        DenseJoint(11, Alphabet(5), [1.0])


def test_divergences_and_projections_reject_mismatched_spaces():
    p = to_dense(random_tree_model(3, 2, seed=1))
    wider = to_dense(random_tree_model(4, 2, seed=1))
    larger_k = to_dense(random_tree_model(3, 3, seed=1))
    for q in (wider, larger_k):
        for compare in (kl_divergence, statistical_distances):
            with pytest.raises(ValueError, match="^distributions live on different spaces$"):
                compare(p, q)
    with pytest.raises(ValueError, match="^distributions live on different spaces$"):
        kl_decomposition(p, random_tree_model(4, 2, seed=1))
    tree = random_tree_model(4, 2, seed=1).tree.skeleton()
    with pytest.raises(ValueError, match="^joint has 3 variables but tree has 4 nodes$"):
        project_onto_tree(p, tree, 0)
    with pytest.raises(ValueError, match="^joint has 3 variables but tree has 4 nodes$"):
        kl_to_tree_projection(p, tree)


def test_root_at_orients_path():
    t = UndirectedTree(4, ((0, 1), (1, 2), (2, 3)))
    r = root_at(t, 2)
    assert r.parent == (1, 2, -1, 2)
    assert r.skeleton().edges == t.edges


def test_tree_model_requires_complete_cpt():
    tree = RootedTree(3, 0, (-1, 0, 1))
    with pytest.raises(ValueError):
        TreeModel(tree, Alphabet(2), [0.5, 0.5], {1: [[0.5, 0.5], [0.5, 0.5]]})
    with pytest.raises(ValueError):
        TreeModel(
            tree,
            Alphabet(2),
            [0.5, 0.5],
            {1: [[0.5, 0.5], [0.5, 0.5]], 2: [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]},
        )


def test_validate_tree_model_reports_first_violation():
    ok = flip_chain(0.1, 0.2)
    validate_tree_model(ok)

    bad_row = flip_chain(0.1, 0.2)
    object.__setattr__(bad_row, "cpt", {1: np.array([[0.6, 0.5], [0.5, 0.5]]), 2: bad_row.cpt[2]})
    with pytest.raises(ValueError, match="row sum"):
        validate_tree_model(bad_row)

    bad_mass = flip_chain(0.1, 0.2)
    object.__setattr__(bad_mass, "root_marginal", np.array([1.2, -0.2]))
    with pytest.raises(ValueError, match="negative"):
        validate_tree_model(bad_mass)


# -- to_dense ----------------------------------------------------------------------

def test_to_dense_point_mass():
    tree = RootedTree(2, 0, (-1, 0))
    m = TreeModel(tree, Alphabet(2), [1.0, 0.0], {1: [[1.0, 0.0], [0.0, 1.0]]})
    dense = to_dense(m)
    assert dense.probs[0] == 1.0
    assert dense.probs[1:].sum() == 0.0


def test_to_dense_uniform_star():
    tree = RootedTree(4, 0, (-1, 0, 0, 0))
    rows = [[0.5, 0.5], [0.5, 0.5]]
    m = TreeModel(tree, Alphabet(2), [0.5, 0.5], {1: rows, 2: rows, 3: rows})
    assert np.allclose(to_dense(m).probs, 1.0 / 16.0, atol=0)


def test_to_dense_matches_pair_marginals():
    m = random_tree_model(4, 3, seed=99)
    dense = to_dense(m)
    assert dense.probs.sum() == pytest.approx(1.0, abs=1e-9)
    for u in range(4):
        for v in range(u + 1, 4):
            assert np.allclose(dense.marginal((u, v)), pair_marginal(m, u, v), atol=1e-12)


def test_pair_marginal_inverts_through_a_zero_mass_parent_symbol():
    # X_1 is never 1, so row 1 of P(X_0 | X_1) has no mass and is set uniform.
    tree = RootedTree(2, 0, (-1, 0))
    m = TreeModel(tree, Alphabet(2), [1.0, 0.0], {1: [[1.0, 0.0], [0.5, 0.5]]})
    assert np.array_equal(pair_marginal(m, 1, 0), to_dense(m).marginal((1, 0)))


def test_projection_onto_the_own_skeleton_gives_back_the_joint_at_every_root():
    for seed in (1, 2, 3):
        m = random_tree_model(5, 2, seed=seed)
        reference = to_dense(m)
        for root in range(5):
            again = to_dense(project_onto_tree(reference, m.tree.skeleton(), root))
            assert np.max(np.abs(again.probs - reference.probs)) <= 1e-12


# -- sampling ---------------------------------------------------------------------

def test_sample_empty_and_deterministic():
    m = flip_chain(0.1, 0.2)
    empty = sample(m, 0, seed=5)
    assert empty.rows.shape == (0, 3)
    a = sample(m, 64, seed=5)
    b = sample(m, 64, seed=5)
    c = sample(m, 64, seed=6)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)


def test_sample_root_frequency():
    m = flip_chain(0.1, 0.2, root=(0.7, 0.3))
    s = sample(m, 100_000, seed=42)
    freq = float(np.mean(s.rows[:, 0] == 0))
    assert abs(freq - 0.7) <= 0.01


def test_sample_dense_mixed_radix_decode():
    probs = np.zeros(8)
    probs[6] = 1.0  # 6 = 1*4 + 1*2 + 0, most significant digit first
    p = DenseJoint(3, Alphabet(2), probs)
    s = sample_dense(p, 10, seed=1)
    assert np.array_equal(s.rows, np.tile([1, 1, 0], (10, 1)))


def test_sample_dense_frequencies_track_probs():
    rng = np.random.default_rng(23)
    p = random_dense(2, 3, rng)
    s = sample_dense(p, 40_000, seed=8)
    counts = np.zeros((3, 3))
    for x, y in s.rows:
        counts[x, y] += 1
    assert np.max(np.abs(counts / 40_000 - p.table())) <= 0.02


# -- pair marginals and exact MI ----------------------------------------------------

def test_pair_marginal_adjacent_edge():
    m = flip_chain(0.1, 0.2, root=(0.7, 0.3))
    expected = np.array([[0.7 * 0.9, 0.7 * 0.1], [0.3 * 0.1, 0.3 * 0.9]])
    assert np.allclose(pair_marginal(m, 0, 1), expected, atol=1e-15)


def test_pair_marginal_two_step_chain():
    m = flip_chain(0.1, 0.2)
    joint = pair_marginal(m, 0, 2)
    assert np.allclose(joint, [[0.37, 0.13], [0.13, 0.37]], atol=1e-12)
    disagree = joint[0, 1] + joint[1, 0]
    assert disagree == pytest.approx(0.26, abs=1e-12)


def test_pair_marginal_star_leaves_independent():
    tree = RootedTree(3, 0, (-1, 0, 0))
    rows = [[0.8, 0.2], [0.8, 0.2]]  # child ignores the parent symbol
    m = TreeModel(tree, Alphabet(2), [0.6, 0.4], {1: rows, 2: rows})
    assert np.allclose(pair_marginal(m, 1, 2), np.outer([0.8, 0.2], [0.8, 0.2]), atol=1e-15)


def test_pair_marginal_matches_dense():
    m = random_tree_model(5, 2, seed=31)
    dense = to_dense(m)
    for u in range(5):
        for v in range(5):
            if u == v:
                continue
            assert np.allclose(pair_marginal(m, u, v), dense.marginal((u, v)), atol=1e-12)
    with pytest.raises(ValueError):
        pair_marginal(m, 2, 2)


def test_pair_marginal_stack_rejects_the_source_node_among_its_nodes():
    m = random_tree_model(4, 2, seed=5)
    with pytest.raises(ValueError, match=r"^duplicate variables in \(0, 0\)$"):
        pair_marginal(m, [0, 0, 0], [1, 0, 2])


def test_pair_marginal_stack_rejects_a_node_out_of_range():
    m = random_tree_model(4, 2, seed=5)
    with pytest.raises(ValueError, match=r"^variable 9 out of range for n=4$"):
        pair_marginal(m, [0, 0], [1, 9])


def test_pair_marginal_stack_rejects_a_fractional_node():
    m = random_tree_model(4, 2, seed=5)
    with pytest.raises(ValueError, match=r"^variable 1\.5 is not an integer$"):
        pair_marginal(m, [0, 0], [2, 1.5])


def test_pair_marginal_of_pairs_rejects_sequences_of_different_lengths():
    m = random_tree_model(4, 2, seed=5)
    with pytest.raises(ValueError, match=r"^sources and nodes differ in length: 3 and 2$"):
        pair_marginal(m, [0, 1, 2], [1, 2])
    for u, v in (([0], 1), (0, [1, 2]), (0, [])):  # a node with a sequence
        with pytest.raises(ValueError, match=r"^give two nodes or two sequences of nodes$"):
            pair_marginal(m, u, v)


@pytest.mark.parametrize("us,vs,message", [
    ([0, 3, 1], [1, 3, 2], r"^duplicate variables in \(3, 3\)$"),
    ([0, 9], [1, 2], r"^variable 9 out of range for n=4$"),
    ([0, 1], [2, 4], r"^variable 4 out of range for n=4$"),
    ([0, 1.5], [2, 3], r"^variable 1\.5 is not an integer$"),
    ([0, 1], [2, 2.5], r"^variable 2\.5 is not an integer$"),
], ids=["same-node", "source-out-of-range", "node-out-of-range", "fractional-source", "fractional-node"])
def test_pair_marginal_of_pairs_checks_every_pair(us, vs, message):
    with pytest.raises(ValueError, match=message):
        pair_marginal(random_tree_model(4, 2, seed=5), us, vs)


@pytest.mark.parametrize("empty", [[], range(0), np.array([], dtype=int)], ids=["list", "range", "array"])
def test_pair_marginal_of_no_pairs_is_an_empty_stack(empty):
    assert pair_marginal(random_tree_model(4, 3, seed=5), empty, empty).shape == (0, 3, 3)


def test_pair_marginal_of_pairs_holds_each_pairs_table_in_the_given_order():
    m = random_tree_model(6, 3, seed=8)
    pairs = [(2, 4), (5, 1), (2, 4), (4, 2), (0, 5)]
    stack = pair_marginal(m, *zip(*pairs))
    assert stack.shape == (5, 3, 3)
    for table, (u, v) in zip(stack, pairs):
        assert np.array_equal(table, pair_marginal(m, u, v))


def test_pair_marginal_stack_holds_each_nodes_table_in_the_given_order():
    m = random_tree_model(6, 3, seed=8)
    nodes = [4, 1, 4, 5]
    stack = pair_marginal(m, [2] * len(nodes), nodes)
    assert stack.shape == (4, 3, 3)
    for table, v in zip(stack, nodes):
        assert np.array_equal(table, pair_marginal(m, 2, v))


def test_exact_mi_matrix_symmetric_and_correct():
    m = random_tree_model(4, 2, seed=12)
    w = exact_mi_matrix(m)
    assert np.allclose(w, w.T, atol=0)
    assert np.all(np.diag(w) == 0.0)
    for u in range(4):
        for v in range(u + 1, 4):
            assert w[u, v] == pytest.approx(direct_mi(pair_marginal(m, u, v)), abs=1e-10)


def test_path_triples_have_zero_conditional_mi():
    for seed in range(10):
        m = random_tree_model(6, 2, seed=seed)
        dense = to_dense(m)
        for u in range(6):
            for v in range(u + 1, 6):
                path = m.tree.path(u, v)
                for w in path[1:-1]:
                    cmi = conditional_mi(dense.marginal((u, v, w)))
                    assert cmi <= 1e-10


# -- projection ----------------------------------------------------------------------

def test_projection_recovers_tree_structured_input():
    m = random_tree_model(4, 2, seed=77)
    p = to_dense(m)
    proj = project_onto_tree(p, m.tree.skeleton(), root=0)
    assert kl_divergence(p, to_dense(proj)) <= 1e-9


def test_projection_of_product_is_product_of_marginals():
    px = np.array([0.3, 0.7])
    py = np.array([0.6, 0.4])
    pz = np.array([0.5, 0.5])
    table = np.einsum("i,j,k->ijk", px, py, pz)
    p = DenseJoint(3, Alphabet(2), table.reshape(-1))
    for edges in (((0, 1), (1, 2)), ((0, 2), (0, 1))):
        proj = project_onto_tree(p, UndirectedTree(3, edges), root=0)
        assert np.max(np.abs(to_dense(proj).probs - p.probs)) <= 1e-12


def test_projection_matches_edge_marginals():
    rng = np.random.default_rng(41)
    p = random_dense(4, 2, rng)
    t = UndirectedTree(4, ((0, 2), (1, 2), (2, 3)))
    proj = project_onto_tree(p, t, root=0)
    dense_proj = to_dense(proj)
    for u, v in t.edges:
        assert np.allclose(dense_proj.marginal((u, v)), p.marginal((u, v)), atol=1e-12)


def test_projection_beats_random_same_skeleton_models():
    rng = np.random.default_rng(43)
    p = random_dense(4, 2, rng)
    t = UndirectedTree(4, ((0, 1), (1, 2), (1, 3)))
    best = kl_divergence(p, to_dense(project_onto_tree(p, t, root=0)))
    parent = root_at(t, 0)
    for _ in range(100):
        cpt = {node: rng.dirichlet(np.ones(2), size=2) for node in range(1, 4)}
        rival = TreeModel(parent, Alphabet(2), rng.dirichlet(np.ones(2)), cpt)
        assert best <= direct_kl(p.probs, to_dense(rival).probs) + 1e-9


def test_projection_gives_zero_mass_parent_symbols_uniform_rows():
    table = np.zeros((2, 2))
    table[0, 0] = 1.0  # symbol 1 of the parent never occurs
    p = DenseJoint(2, Alphabet(2), table.reshape(-1))
    proj = project_onto_tree(p, UndirectedTree(2, ((0, 1),)), root=0)
    validate_tree_model(proj)
    assert np.allclose(proj.cpt[1][1], [0.5, 0.5], atol=0)


# -- divergences ----------------------------------------------------------------------

def test_kl_divergence_basics():
    rng = np.random.default_rng(47)
    p = random_dense(2, 2, rng)
    assert kl_divergence(p, p) == 0.0

    point = DenseJoint(1, Alphabet(2), [1.0, 0.0])
    uniform = DenseJoint(1, Alphabet(2), [0.5, 0.5])
    assert kl_divergence(point, uniform) == pytest.approx(LN2, abs=1e-15)
    assert kl_divergence(uniform, point) == math.inf


def test_kl_divergence_matches_direct_oracle():
    rng = np.random.default_rng(53)
    for _ in range(40):
        p = random_dense(3, 2, rng)
        q = random_dense(3, 2, rng)
        assert kl_divergence(p, q) == pytest.approx(direct_kl(p.probs, q.probs), abs=1e-12)


def test_projection_identity_product_case():
    table = np.einsum("i,j,k->ijk", [0.4, 0.6], [0.2, 0.8], [0.5, 0.5])
    p = DenseJoint(3, Alphabet(2), table.reshape(-1))
    report = kl_to_tree_projection(p, UndirectedTree(3, ((0, 1), (1, 2))))
    assert report.total_correlation == pytest.approx(0.0, abs=1e-12)
    assert report.tree_weight == pytest.approx(0.0, abs=1e-12)
    assert report.kl == pytest.approx(0.0, abs=1e-12)


def test_projection_identity_perfectly_correlated_bits():
    probs = np.zeros(8)
    probs[0] = probs[7] = 0.5  # three copies of one fair bit
    p = DenseJoint(3, Alphabet(2), probs)
    report = kl_to_tree_projection(p, UndirectedTree(3, ((0, 1), (1, 2))))
    assert report.total_correlation == pytest.approx(2 * LN2, abs=1e-12)
    assert report.tree_weight == pytest.approx(2 * LN2, abs=1e-12)
    assert report.kl == pytest.approx(0.0, abs=1e-12)


def test_projection_identity_parity_distribution():
    probs = np.zeros(8)
    for idx, bits in enumerate(((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))):
        probs[bits[0] * 4 + bits[1] * 2 + bits[2]] = 0.25
    p = DenseJoint(3, Alphabet(2), probs)
    for edges in (((0, 1), (1, 2)), ((0, 1), (0, 2))):
        t = UndirectedTree(3, edges)
        report = kl_to_tree_projection(p, t)
        assert report.tree_weight == pytest.approx(0.0, abs=1e-12)
        assert report.kl == pytest.approx(LN2, abs=1e-12)
        # Brute-force route: KL to the actual projected model.
        brute = direct_kl(p.probs, to_dense(project_onto_tree(p, t, root=0)).probs)
        assert report.kl == pytest.approx(brute, abs=1e-9)


def test_projection_identity_random_cases():
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = int(rng.integers(3, 5))
        p = random_dense(n, 2, rng)
        t = random_spanning_tree(n, rng)
        report = kl_to_tree_projection(p, t)
        brute = direct_kl(p.probs, to_dense(project_onto_tree(p, t, root=0)).probs)
        assert abs(report.kl - brute) <= 1e-9


def test_kl_decomposition_zero_for_own_model():
    m = random_tree_model(4, 2, seed=61)
    d = kl_decomposition(to_dense(m), m)
    assert d.total == pytest.approx(0.0, abs=1e-9)
    assert d.conditional_term >= -1e-12


def test_kl_decomposition_projection_drops_conditional_term():
    rng = np.random.default_rng(67)
    p = random_dense(4, 2, rng)
    t = UndirectedTree(4, ((0, 1), (0, 2), (2, 3)))
    proj = project_onto_tree(p, t, root=0)
    d = kl_decomposition(p, proj)
    assert d.conditional_term == pytest.approx(0.0, abs=1e-10)
    report = kl_to_tree_projection(p, t)
    assert d.total == pytest.approx(report.kl, abs=1e-9)


def test_kl_decomposition_matches_brute_force():
    rng = np.random.default_rng(71)
    for _ in range(25):
        p = random_dense(4, 2, rng)
        m = random_tree_model(4, 2, seed=int(rng.integers(1 << 30)), cpt_floor=0.05)
        d = kl_decomposition(p, m)
        assert d.total == pytest.approx(direct_kl(p.probs, to_dense(m).probs), abs=1e-9)
        assert d.conditional_term >= -1e-12
        assert d.total == pytest.approx(d.base_term - d.weight_term + d.conditional_term, abs=1e-12)


def test_kl_decomposition_signals_infinite_support_mismatch():
    tree = RootedTree(2, 0, (-1, 0))
    m = TreeModel(tree, Alphabet(2), [0.5, 0.5], {1: [[1.0, 0.0], [1.0, 0.0]]})
    uniform = DenseJoint(2, Alphabet(2), [0.25, 0.25, 0.25, 0.25])
    assert kl_decomposition(uniform, m).total == math.inf
    assert kl_divergence(uniform, to_dense(m)) == math.inf


def test_kl_decomposition_weight_term_covers_every_edge_after_an_infinite_row():
    # Node 1's first conditional row misses mass that p carries, so the
    # conditional term is infinite from the first non-root node on; the
    # weight term must still sum p's MI over all three edges.
    p = random_dense(4, 2, np.random.default_rng(73))
    tree = RootedTree(4, 0, (-1, 0, 1, 2))
    rows = [[0.7, 0.3], [0.4, 0.6]]
    m = TreeModel(tree, Alphabet(2), [0.5, 0.5], {1: [[1.0, 0.0], [0.5, 0.5]], 2: rows, 3: rows})
    d = kl_decomposition(p, m)
    assert d.conditional_term == math.inf and d.total == math.inf
    weight = sum(direct_mi(p.marginal(e)) for e in tree.skeleton().edges)
    assert d.weight_term == pytest.approx(weight, rel=1e-12)


# -- statistical distances --------------------------------------------------------------

def test_distances_identical_and_disjoint():
    p = DenseJoint(1, Alphabet(2), [0.3, 0.7])
    d = statistical_distances(p, p)
    assert (d.tv, d.hellinger_sq) == (0.0, 0.0)

    a = DenseJoint(1, Alphabet(2), [1.0, 0.0])
    b = DenseJoint(1, Alphabet(2), [0.0, 1.0])
    d = statistical_distances(a, b)
    assert (d.tv, d.hellinger_sq) == (1.0, 1.0)


def test_distances_on_hard_pair():
    d = statistical_distances(realizable_triple(1, 0.1), realizable_triple(2, 0.1))
    assert d.hellinger_sq == pytest.approx(0.05, abs=1e-12)


def test_pinsker_inequality_random_pairs():
    rng = np.random.default_rng(73)
    for _ in range(50):
        p = random_dense(3, 2, rng)
        q = random_dense(3, 2, rng)
        d = statistical_distances(p, q)
        kl = kl_divergence(p, q)
        assert d.tv <= math.sqrt(kl / 2.0) + 1e-9


def test_hellinger_tensorization():
    rng = np.random.default_rng(79)
    p = random_dense(1, 3, rng)
    q = random_dense(1, 3, rng)
    h1 = statistical_distances(p, q).hellinger_sq
    for copies in range(2, 6):
        hk = statistical_distances(
            block_product([p] * copies), block_product([q] * copies)
        ).hellinger_sq
        assert hk == pytest.approx(1.0 - (1.0 - h1) ** copies, abs=1e-9)


# -- node marginals and random generators ------------------------------------------------

def test_node_marginals_by_propagation():
    m = flip_chain(0.1, 0.2, root=(0.7, 0.3))
    out = node_marginals(m)
    expected1 = np.array([0.7, 0.3]) @ np.array([[0.9, 0.1], [0.1, 0.9]])
    expected2 = expected1 @ np.array([[0.8, 0.2], [0.2, 0.8]])
    assert np.allclose(out[0], [0.7, 0.3], atol=0)
    assert np.allclose(out[1], expected1, atol=1e-15)
    assert np.allclose(out[2], expected2, atol=1e-15)


def test_random_spanning_tree_shapes():
    rng = np.random.default_rng(83)
    assert random_spanning_tree(1, rng).edges == ()
    assert random_spanning_tree(2, rng).edges == ((0, 1),)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        t = random_spanning_tree(n, rng)
        assert is_spanning_tree(n, t.edges)


def test_random_tree_model_respects_floor():
    m = random_tree_model(6, 3, seed=5, cpt_floor=0.05)
    validate_tree_model(m)
    assert np.min(m.root_marginal) >= 0.05
    for rows in m.cpt.values():
        assert np.min(rows) >= 0.05
    with pytest.raises(ValueError):
        random_tree_model(4, 3, seed=5, cpt_floor=0.4)


@pytest.mark.parametrize("k", [2, 3, 17])
@pytest.mark.parametrize("n", [1, 2, 40])
def test_random_tree_model_equals_one_dirichlet_draw_per_row(n, k):
    floor = 0.05 if 0.05 * k < 1 else 0.01
    for cpt_floor in (floor, 0.0):
        rng = np.random.default_rng(9)
        tree = random_spanning_tree(n, rng)

        def row():
            return cpt_floor + (1.0 - k * cpt_floor) * rng.dirichlet(np.ones(k))

        root_marginal = row()
        cpt = {node: np.stack([row() for _ in range(k)]) for node in range(1, n)}
        m = random_tree_model(n, k, 9, cpt_floor)
        assert m.tree.skeleton() == tree and m.tree.root == 0
        assert m.root_marginal.tobytes() == root_marginal.tobytes()
        assert sorted(m.cpt) == sorted(cpt)
        assert all(m.cpt[node].tobytes() == cpt[node].tobytes() for node in cpt)


# -- serialization ------------------------------------------------------------------------

def test_dense_joint_with_a_huge_n_is_rejected_without_computing_k_to_the_n():
    # 2**(10**12) would hold the process for far longer than the suite runs.
    with pytest.raises(ValueError, match=r"dense table of 2\*\*1000000000000 entries exceeds cap"):
        DenseJoint(10**12, Alphabet(2), [1])


WRONG_TYPES = [5, 1.5, "x", None, True, [], {}, [5], [[5]], [[0, 1, 2]], {"a": 1}, {"1": 5}, [None]]


def test_json_loaders_reject_values_of_the_wrong_type_with_value_error():
    m = random_tree_model(3, 2, seed=1)
    cell = {"n": 1, "k": 4, "epsilon": 0.05, "N": 10}
    documents = [
        (json.loads(tree_model_to_json(m)), tree_model_from_json),
        (json.loads(undirected_tree_to_json(m.tree.skeleton())), undirected_tree_from_json),
        ({"kind": "Add1Risk", "grid": [cell], "trials": 2, "seed": 1, "options": {}},
         ExperimentConfig.from_json),
        (cell, lambda text: ExperimentConfig.from_json(
            json.dumps({"kind": "Add1Risk", "grid": [json.loads(text)], "trials": 2, "seed": 1}))),
    ]
    for doc, load in documents:
        load(json.dumps(doc))
        for key in doc:
            for value in WRONG_TYPES:
                try:
                    load(json.dumps({**doc, key: value}))
                except ValueError:
                    pass


def test_undirected_tree_json_round_trip():
    t = UndirectedTree(4, ((2, 3), (0, 2), (1, 2)))
    text = undirected_tree_to_json(t)
    doc = json.loads(text)
    assert doc["edges"] == sorted(doc["edges"])
    assert undirected_tree_from_json(text).edges == t.edges


def test_tree_model_json_round_trip():
    m = random_tree_model(5, 3, seed=97)
    again = tree_model_from_json(tree_model_to_json(m))
    assert again.tree.parent == m.tree.parent
    assert again.tree.root == m.tree.root
    assert np.array_equal(again.root_marginal, m.root_marginal)
    for node in m.cpt:
        assert np.array_equal(again.cpt[node], m.cpt[node])


# -- NaN, infinity and deep nesting ---------------------------------------------------

def test_dense_joint_rejects_nan_and_infinity():
    with pytest.raises(ValueError, match="^NaN entry in probability table$"):
        DenseJoint(1, Alphabet(2), [float("nan"), float("nan")])
    with pytest.raises(ValueError, match="^NaN entry in probability table$"):
        DenseJoint(1, Alphabet(2), [float("nan"), 1.0])
    with pytest.raises(ValueError, match="^negative entry in probability table$"):
        DenseJoint(1, Alphabet(2), [-float("inf"), 1.0])
    with pytest.raises(ValueError, match="^probability table row sum != 1: inf$"):
        DenseJoint(1, Alphabet(2), [float("inf"), 0.0])


def test_validate_tree_model_rejects_nan():
    nan_root = flip_chain(0.1, 0.2, root=(float("nan"), float("nan")))
    with pytest.raises(ValueError, match="^NaN entry in root marginal$"):
        validate_tree_model(nan_root)
    nan_row = flip_chain(0.1, 0.2)
    object.__setattr__(nan_row, "cpt", {1: nan_row.cpt[1], 2: np.array([[0.5, 0.5], [float("nan"), 0.5]])})
    with pytest.raises(ValueError, match="^NaN entry in cpt of node 2 at row 1$"):
        validate_tree_model(nan_row)
    inf_row = flip_chain(0.1, 0.2)
    object.__setattr__(inf_row, "cpt", {1: inf_row.cpt[1], 2: np.array([[0.5, 0.5], [float("inf"), 0.0]])})
    with pytest.raises(ValueError, match="^cpt of node 2 row sum != 1 at row 1: inf$"):
        validate_tree_model(inf_row)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_json_probability_arrays_reject_non_finite_numbers(value):
    text = tree_model_to_json(flip_chain(0.1, 0.2)).replace("0.9", value, 1)
    with pytest.raises(ValueError, match="model has a bad value for key 'cpt': expected a finite number"):
        tree_model_from_json(text)


def test_deeply_nested_json_is_a_value_error():
    deep = "[" * 100_000 + "]" * 100_000
    for load, what in ((tree_model_from_json, "model"), (undirected_tree_from_json, "tree"),
                       (ExperimentConfig.from_json, "experiment config")):
        with pytest.raises(ValueError, match=f"^{what} is nested too deeply to parse$"):
            load(deep)
