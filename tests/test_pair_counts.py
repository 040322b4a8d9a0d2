"""Counting every variable pair in one pass, and the MI matrix built on it.

Core claims:
    - the count pass yields exactly empirical_counts for every pair i < j,
      by i and then j ascending, on both sides of the alphabet-size
      crossover, at every chunk edge and across several variable blocks
    - mi_matrix weights are bit-identical to the per-pair bincount loop of
      tests/oracles.py
    - equal count tables give bit-equal weights, so the pinned Kruskal
      tie-break still decides between duplicated columns
"""

import numpy as np
import pytest

from chowliu import Alphabet, SampleSet, UndirectedTree, empirical_counts, max_weight_spanning_tree, mi_matrix
from chowliu import estimation
from chowliu.estimation import _ONE_HOT_MAX_K, _count_plan, _pair_counts

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
    assert [ij for ij, _ in got] == [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), counts in got:
        assert counts.dtype == np.int64 and counts.flags.c_contiguous
        assert np.array_equal(counts, empirical_counts(s, (i, j)).counts), (i, j)


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
    assert all(np.array_equal(counts, np.zeros((3, 3))) for _, counts in _pair_counts(s))


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
