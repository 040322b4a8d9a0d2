"""The samplers' RNG streams, pinned against an import-free reference.

Core claims:
    - `sample` draws exactly the rows of the reference ancestral sampler:
      breadth-first node order, one rng.random(count) block per node, and
      inverse CDF on the running totals of each row;
    - `sample_dense` draws exactly the rows of the reference flat-table
      sampler: one rng.random(count) block, inverse CDF on the flat table,
      mixed-radix decoding;
    - both hold for k in {2, 3, 9} and for tables with zero-probability
      entries, including a zero last entry;
    - `sample` draws each node's uniforms in chunks of model._DRAW_CHUNK,
      with the same stream at no draws, one chunk, one chunk and one, and
      several chunks, and its memory is the rows and one chunk of draws;
    - `sample_dense` draws in the same chunks, with the rows of one
      unchunked draw at a chunk less one, one chunk, one chunk and one, and
      three chunks and five, and its memory too is the rows and one chunk;
    - the conditional inverse CDF, which counts one column at a time, draws
      what comparing each uniform with a whole row of running totals draws,
      also for rows of zero mass and for uniforms equal to a running total.
"""

import tracemalloc

import numpy as np
import pytest

from chowliu import Alphabet, DenseJoint, RootedTree, TreeModel, model, random_tree_model, sample, sample_dense
from chowliu.model import _inverse_cdf

from oracles import ancestral_sample, flat_table_sample

PARENTS = (2, 2, -1, 1, 1, 3)  # root 2, so the breadth-first order is not 0..n-1


def sparse_rows(rng, shape, k: int) -> np.ndarray:
    """Dirichlet rows with roughly a third of the entries zeroed, every
    row's last entry among them, renormalized."""
    rows = rng.dirichlet(np.ones(k), size=shape)
    mask = rng.random(rows.shape) < 0.35
    mask[..., -1] = True
    mask[..., 0] = False  # keep every row's mass positive
    rows[mask] = 0.0
    return rows / rows.sum(axis=-1, keepdims=True)


def sparse_model(k: int, seed: int) -> TreeModel:
    rng = np.random.default_rng(seed)
    cpt = {node: sparse_rows(rng, (k,), k) for node, p in enumerate(PARENTS) if p >= 0}
    root_marginal = sparse_rows(rng, (), k)
    return TreeModel(RootedTree(len(PARENTS), 2, PARENTS), Alphabet(k), root_marginal, cpt)


@pytest.mark.parametrize("k", [2, 3, 9])
@pytest.mark.parametrize("sparse", [False, True])
def test_sample_matches_reference_stream(k, sparse):
    if sparse:
        m = sparse_model(k, seed=k)
    else:
        rng = np.random.default_rng(k)
        cpt = {node: rng.dirichlet(np.ones(k), size=k) for node, p in enumerate(PARENTS) if p >= 0}
        m = TreeModel(RootedTree(len(PARENTS), 2, PARENTS), Alphabet(k), rng.dirichlet(np.ones(k)), cpt)
    cpt = {node: m.cpt[node].tolist() for node in m.cpt}
    for seed in (0, 17):
        got = sample(m, 400, seed).rows
        want = ancestral_sample(PARENTS, m.root_marginal.tolist(), cpt, 400, seed)
        assert got.tolist() == want


@pytest.mark.parametrize("count", [0, 64, 65, 4 * 64 + 3], ids=["empty", "one-chunk", "one-chunk-and-one", "several"])
def test_sample_in_chunks_matches_reference_stream(monkeypatch, count):
    monkeypatch.setattr(model, "_DRAW_CHUNK", 64)
    m = sparse_model(3, seed=11)
    cpt = {node: m.cpt[node].tolist() for node in m.cpt}
    got = sample(m, count, 5).rows
    assert got.shape == (count, len(PARENTS))
    assert got.tolist() == ancestral_sample(PARENTS, m.root_marginal.tolist(), cpt, count, 5)


def rows_and_peak(draw):
    """The rows `draw` returns and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        rows = draw().rows
        return rows, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_memory_is_the_rows_and_one_chunk_of_draws():
    rows, peak = rows_and_peak(lambda: sample(random_tree_model(16, 2, 1), 200_000, 5))
    # About 33 bytes a uniform of one chunk, besides the (count, n) rows.
    assert peak < rows.nbytes + 36 * model._DRAW_CHUNK


CHUNK = 64


@pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5],
                         ids=["chunk-less-one", "one-chunk", "one-chunk-and-one", "three-chunks-and-five"])
def test_sample_dense_in_chunks_matches_one_unchunked_draw(monkeypatch, count):
    rng = np.random.default_rng(21)
    p = DenseJoint(3, Alphabet(3), sparse_rows(rng, (), 27))
    whole = sample_dense(p, count, 8).rows  # the default chunk holds every draw
    assert count < model._DRAW_CHUNK
    monkeypatch.setattr(model, "_DRAW_CHUNK", CHUNK)
    got = sample_dense(p, count, 8).rows
    assert np.array_equal(got, whole)
    assert got.tolist() == flat_table_sample(p.probs.tolist(), 3, 3, count, 8)


def test_sample_dense_memory_is_the_rows_and_one_chunk_of_draws():
    p = DenseJoint(3, Alphabet(2), np.random.default_rng(4).dirichlet(np.ones(8)))
    rows, peak = rows_and_peak(lambda: sample_dense(p, 40 * model._DRAW_CHUNK, 5))
    # The uniforms, the flat indices and their remainders, 8 bytes a draw
    # each, of one chunk, besides the (count, n) rows.
    assert peak < rows.nbytes + 36 * model._DRAW_CHUNK


@pytest.mark.parametrize("k,n", [(2, 4), (3, 3), (9, 2)])
@pytest.mark.parametrize("sparse", [False, True])
def test_sample_dense_matches_reference_stream(k, n, sparse):
    rng = np.random.default_rng(100 + k)
    probs = sparse_rows(rng, (), k**n) if sparse else rng.dirichlet(np.ones(k**n))
    p = DenseJoint(n, Alphabet(k), probs)
    for seed in (0, 17):
        got = sample_dense(p, 400, seed).rows
        assert got.tolist() == flat_table_sample(p.probs.tolist(), n, k, 400, seed)


def test_sample_dense_never_draws_zero_mass_assignments():
    probs = np.zeros(27)
    probs[[0, 5, 13]] = (0.25, 0.5, 0.25)
    rows = sample_dense(DenseJoint(3, Alphabet(3), probs), 2000, 3).rows
    flat = rows[:, 0].astype(int) * 9 + rows[:, 1] * 3 + rows[:, 2]
    assert set(flat.tolist()) <= {0, 5, 13}


def test_samplers_reject_a_negative_count():
    with pytest.raises(ValueError, match="^count must be >= 0$"):
        sample(random_tree_model(3, 2, seed=1), -1, 1)
    with pytest.raises(ValueError, match="^count must be >= 0$"):
        sample_dense(DenseJoint(2, Alphabet(2), np.full(4, 0.25)), -1, 1)


@pytest.mark.parametrize("k", [2, 3, 4, 8, 17, 64])
def test_conditional_inverse_cdf_equals_the_whole_row_comparison(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        table = rng.dirichlet(np.ones(k), size=k) * (rng.random((k, 1)) < 0.8)  # some rows of zero mass
        table[rng.random(table.shape) < 0.3] = 0.0
        cum = np.cumsum(table, axis=-1)
        given = rng.integers(0, k, size=500)
        u = rng.random(500)
        on_a_total = rng.random(500) < 0.3
        u[on_a_total] = cum[given[on_a_total], rng.integers(0, k, size=on_a_total.sum())]
        old = np.minimum((cum[given] < u[:, None]).sum(axis=1), k - 1)
        assert np.array_equal(_inverse_cdf(table, u, given), old)
